import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.signal

from nujd.core import CongruenceKind, GLElement, TaggedMatrix, is_essentially_equivalent
from nujd.errors import ConfigError
from nujd.simulation import (
    STATISTICS,
    ExperimentConfig,
    SourceSpec,
    _check_statistic,
    _entry_kind,
    _generate_channel,
    _pop_cum4,
    _population,
    amari_index,
    estimate_statistic,
    generate,
    mix,
    population_stacks,
    run_experiment,
    run_trial,
)
from nujd.solvers import put
from nujd.uniqueness import identifiability_master

from _reference import circularity_coefficient
from conftest import run_fresh


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

    @pytest.mark.parametrize("fields, message", [
        # a string used to end in a TypeError; a bool, inf and 10**400 were accepted
        ({"power": "2"}, "power must be a number, got '2'"),
        ({"power": True}, "power must be a number, got True"),
        ({"power": None}, "power must be a number, got None"),
        ({"power": 10**400}, f"power must be a number, got {10**400}"),
        ({"power": math.inf}, "power must be at most 2**200, got inf"),
        ({"power": 1e300}, "power must be at most 2**200, got 1e+300"),
        ({"power": 2.0**201}, f"power must be at most 2**200, got {2.0**201}"),
        ({"circularity": "0.5"}, "circularity must be a number, got '0.5'"),
        ({"coefficient": False}, "coefficient must be a number, got False"),
        ({"variance_profile": 5}, "variance_profile must be a list of numbers, got 5"),
        ({"variance_profile": [1, "2"]}, "variance_profile[1] must be a number, got '2'"),
    ])
    def test_number_fields_of_every_kind(self, fields, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            SourceSpec("bpsk", **fields)

    @pytest.mark.parametrize("profile, message", [
        ((math.nan, 1.0), "variance profile must be non-empty and positive"),
        ((1e308, 1.0), "power * variance_profile[0] must be at most 2**200, got 1e+308"),
        ((1.0, math.inf), "power * variance_profile[1] must be at most 2**200, got inf"),
    ])
    def test_block_profile_range(self, profile, message):
        # [1e308, 1] used to overflow the certifier's Gram product in every trial
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            SourceSpec("block_nonstationary", variance_profile=profile)
        with pytest.raises(ConfigError, match="at most 2"):
            SourceSpec("block_nonstationary", power=2.0**100, variance_profile=(2.0**101, 1.0))

    def test_numbers_become_floats(self):
        spec = SourceSpec("block_nonstationary", power=np.int64(2), variance_profile=[1, np.float32(4)])
        assert type(spec.power) is float and spec.variance_profile == (1.0, 4.0)
        assert all(type(v) is float for v in spec.variance_profile)
        assert SourceSpec("bpsk", power=2.0**200).power == 2.0**200

    def test_sources_at_the_power_cap_run_without_overflow(self):
        top = 2.0**200
        cum4 = {"statistic": "cumulant_slice", "pattern": "0000", "axes": (0, 1), "fixed": (0, 0)}
        for sources in [
            (SourceSpec("bpsk", power=top), SourceSpec("qpsk", power=top)),
            (SourceSpec("block_nonstationary", variance_profile=(top, 1.0)),
             SourceSpec("block_nonstationary", variance_profile=(1.0, top))),
        ]:
            stats = ({"statistic": "covariance"}, cum4)
            config = ExperimentConfig(sources=sources, T=400, seed=7, statistics=stats, cond_cap=1e4)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                rep = run_experiment(config)
            assert rep["aggregate"]["failed"] == 0
            assert rep["trials"][0]["identifiability"] in ("Unique", "NotUnique")


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
        assert np.linalg.cond(truth.a.matrix) <= 20

    def test_seeded_determinism(self):
        s1, t1 = generate((SourceSpec("qpsk"), SourceSpec("bpsk")), 500, 7)
        s2, t2 = generate((SourceSpec("qpsk"), SourceSpec("bpsk")), 500, 7)
        assert np.array_equal(s1.data, s2.data)
        assert np.array_equal(t1.a.matrix, t2.a.matrix)

    def test_min_samples(self):
        with pytest.raises(ConfigError):
            generate((SourceSpec("bpsk"),), 50, 1)


AR1_POLES = (0.0, 1e-200, -1e-200, -0.5, 0.9, -0.99, 0.999999)


def _ar1_full_length(spec, rng, t):
    """AR(1) channel with s0 * a^k added at every one of the t samples."""
    lam, a = spec.circularity, spec.coefficient
    root_p = math.sqrt(spec.power)
    ax = math.sqrt((1.0 + lam) / 2.0)
    bx = math.sqrt((1.0 - lam) / 2.0)
    x, y = rng.standard_normal(t), rng.standard_normal(t)
    innov = (ax * x + 1j * bx * y) * (root_p * math.sqrt(1.0 - a * a))
    x0, y0 = rng.standard_normal(2)
    s0 = (ax * x0 + 1j * bx * y0) * root_p
    s = scipy.signal.lfilter([1.0], [1.0, -a], innov)
    return s + s0 * np.power(a, np.arange(1, t + 1))


def _ar1_cutoff(a, t):
    return 0 if a == 0 else min(t, math.ceil(1080 / -math.log2(abs(a))))


class TestAR1InitialCondition:
    # the initial-condition term is added only while a^k can be nonzero;
    # the channel must keep every bit of the full-length formula
    @pytest.mark.parametrize("a", AR1_POLES)
    @pytest.mark.parametrize("t", [100, 10_000])
    def test_bits_match_the_full_length_formula(self, a, t):
        # circularity 1 gives zero imaginary innovations
        for lam in (0.0, 0.5, 1.0):
            for seed in range(3):
                spec = SourceSpec("ar1_noncircular", power=1.7, circularity=lam, coefficient=a)
                got = np.empty(t, dtype=np.complex128)
                _generate_channel(spec, np.random.default_rng([seed, 6]), got)
                want = _ar1_full_length(spec, np.random.default_rng([seed, 6]), t)
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("a", AR1_POLES)
    @pytest.mark.parametrize("t", [100, 10_000, 1_000_000])
    def test_powers_past_the_cutoff_are_exact_zeros(self, a, t):
        n = _ar1_cutoff(a, t)
        assert np.all(np.power(a, np.arange(n + 1, t + 1)) == 0)


class TestAR1Solve:
    # the channel's recurrence is a BLAS banded solve; it must keep the bits
    # of the lfilter reference whether it writes a row of generate's buffer
    # or a strided view
    POLES = (1e-200, -1e-200, 0.0, -0.99, 0.999999)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_generate_rows_match_lfilter(self, lam):
        t = 100_000
        specs = tuple(
            SourceSpec("ar1_noncircular", power=1.7, circularity=lam, coefficient=a)
            for a in self.POLES
        )
        src, _ = generate(specs, t, [8, 1], cond_cap=1e4)
        children = np.random.SeedSequence([8, 1]).spawn(len(specs) + 1)
        want = np.array([
            _ar1_full_length(spec, np.random.default_rng(child), t)
            for spec, child in zip(specs, children[1:])
        ])
        assert src.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("a", POLES)
    def test_strided_out_gets_the_same_bytes(self, a):
        t = 10_000
        spec = SourceSpec("ar1_noncircular", circularity=0.5, coefficient=a)
        row = np.empty(t, dtype=np.complex128)
        _generate_channel(spec, np.random.default_rng(9), row)
        buf = np.zeros((t, 2), dtype=np.complex128)
        _generate_channel(spec, np.random.default_rng(9), buf[:, 1])
        assert buf[:, 1].tobytes() == row.tobytes()
        assert not buf[:, 0].any()


_AR1_PROBE = """
import hashlib, json, sys
from nujd.simulation import SourceSpec, _ztbsv, generate

def ar1_rows():
    spec = SourceSpec("ar1_noncircular", circularity=0.9, coefficient=0.9)
    return hashlib.sha256(generate((spec, spec), 1000, 3)[0].data.tobytes()).hexdigest()

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
"""


def _run_ar1_probe(code: str) -> dict:
    """Run ``code`` after ``_AR1_PROBE`` in a fresh interpreter; the JSON it prints last."""
    return run_fresh(_AR1_PROBE + code)


class TestAR1Loader:
    # an AR(1) channel loads scipy's compiled BLAS module by path; the
    # scipy.linalg package would add about 330 modules and 28 MB of RSS

    def test_generate_loads_the_blas_module_alone(self):
        out = _run_ar1_probe("ar1_rows()\nprint(json.dumps({'scipy': scipy_modules()}))")
        assert out["scipy"] == ["scipy.linalg._fblas"]

    def test_scipy_linalg_imported_later_shares_the_function(self):
        out = _run_ar1_probe(
            "f = _ztbsv()\n"
            "import numpy as np, scipy.linalg, scipy.linalg.blas\n"
            "scipy.linalg.schur(np.eye(2))\n"
            "print(json.dumps({'same': scipy.linalg.blas.ztbsv is f}))"
        )
        assert out["same"]

    def test_scipy_linalg_imported_first_gives_the_same_function_and_bytes(self):
        alone = _run_ar1_probe("print(json.dumps({'rows': ar1_rows()}))")
        out = _run_ar1_probe(
            "import scipy.linalg.blas\n"
            "rows = ar1_rows()\n"
            "print(json.dumps({'rows': rows, 'same': scipy.linalg.blas.ztbsv is _ztbsv()}))"
        )
        assert out["same"]
        assert out["rows"] == alone["rows"]


_QPSK = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / np.sqrt(2.0)


def _closed_form_channel(spec, rng, t):
    """One channel as a fresh array, from each kind's closed-form expression."""
    root_p = math.sqrt(spec.power)
    if spec.kind == "bpsk":
        return (rng.integers(0, 2, t) * 2.0 - 1.0) * root_p + 0.0j
    if spec.kind == "qpsk":
        return _QPSK[rng.integers(0, 4, t)] * root_p
    if spec.kind == "circular_gaussian":
        x, y = rng.standard_normal(t), rng.standard_normal(t)
        return (x + 1j * y) * (root_p / np.sqrt(2.0))
    if spec.kind == "noncircular_gaussian":
        lam = spec.circularity
        ax = math.sqrt((1.0 + lam) / 2.0)
        bx = math.sqrt((1.0 - lam) / 2.0)
        x, y = rng.standard_normal(t), rng.standard_normal(t)
        return (ax * x + 1j * bx * y) * root_p
    if spec.kind == "ar1_noncircular":
        return _ar1_full_length(spec, rng, t)
    edges = np.linspace(0, t, len(spec.variance_profile) + 1).astype(int)
    x, y = rng.standard_normal(t), rng.standard_normal(t)
    s = (x + 1j * y) / np.sqrt(2.0)
    for b, v in enumerate(spec.variance_profile):
        s[edges[b] : edges[b + 1]] *= math.sqrt(spec.power * v)
    return s


def _closed_form_sources(specs, t, seed):
    """generate()'s source rows, one fresh array per channel stacked by np.vstack."""
    children = np.random.SeedSequence(seed).spawn(len(specs) + 1)
    return np.vstack([
        _closed_form_channel(spec, np.random.default_rng(child), t)
        for spec, child in zip(specs, children[1:])
    ])


class TestGenerateBits:
    # generate() fills one buffer in place; every kind must keep the bits of
    # its closed-form expression, signed zeros included
    @pytest.mark.parametrize("power", [1.0, 1.7, 0.3])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    def test_every_kind_matches_the_closed_form(self, power, lam):
        specs = (
            SourceSpec("bpsk", power=power),
            SourceSpec("qpsk", power=power),
            SourceSpec("circular_gaussian", power=power),
            SourceSpec("noncircular_gaussian", power=power, circularity=lam),
            SourceSpec("ar1_noncircular", power=power, circularity=lam, coefficient=0.9),
            SourceSpec("ar1_noncircular", power=power, circularity=lam, coefficient=-0.5),
            SourceSpec("block_nonstationary", power=power, variance_profile=(1.0, 4.0, 0.5)),
        )
        for seed in (0, 7, [3, 11]):
            got, _ = generate(specs, 1000, seed)
            want = _closed_form_sources(specs, 1000, seed)
            assert got.data.tobytes() == want.tobytes()


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
        x = np.linalg.inv(truth.a.matrix).conj().T
        assert np.allclose(x.conj().T @ w.data, src.data)


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


def population_diagonal(truth, stat, t):
    """The population diagonal of a one-matrix recipe entry."""
    (diag,) = _population(truth, stat, t)
    return diag


def population_matrices(truth, statistics, t):
    """Population matrices A diag(d) A^dagger, one per matrix of each recipe entry."""
    a = truth.a.matrix
    mats = []
    for stat in statistics:
        kind = _entry_kind(stat)
        for d in _population(truth, stat, t):
            if kind is CongruenceKind.HERMITIAN:
                mats.append(TaggedMatrix(a @ np.diag(d.real) @ a.conj().T, kind))
            else:
                mats.append(TaggedMatrix(a @ np.diag(d) @ a.T, kind))
    return mats


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

    @pytest.mark.parametrize("profile, value", [((1.0, 4.0, 0.25), 11.8125), ((1.0, 9.0), 72.0)])
    def test_block_nonstationary_cum4_is_the_sample_cumulant(self, profile, value):
        # a Gaussian variance mixture: with two slots conjugated, the
        # cumulant is twice the variance of the block powers; else zero
        spec = SourceSpec("block_nonstationary", power=1.5, variance_profile=profile)
        for bits in ((0, 0, 1, 1), (0, 1, 0, 1), (1, 1, 0, 0)):
            assert _pop_cum4(spec, bits) == value
        for bits in ((0, 0, 0, 0), (0, 0, 0, 1), (1, 1, 1, 0), (1, 1, 1, 1)):
            assert _pop_cum4(spec, bits) == 0.0
        samples = []
        for seed in range(10):
            block, _ = generate((spec,), 120_000, seed)
            s = block.data[0]
            power = np.abs(s) ** 2
            samples.append(np.mean(power**2) - 2 * np.mean(power) ** 2 - abs(np.mean(s**2)) ** 2)
        assert abs(np.mean(samples) - value) < 4 * np.std(samples, ddof=1) / math.sqrt(len(samples))

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
        # whenever the engine certifies the population pair with margin
        specs = (
            SourceSpec("noncircular_gaussian", circularity=0.9),
            SourceSpec("noncircular_gaussian", circularity=0.3),
        )
        _, truth = generate(specs, 200, 14)
        a = truth.a.matrix
        recipe = ({"statistic": "covariance"}, {"statistic": "pseudo_covariance"})
        sym, herm, available = population_stacks(truth, recipe, 200)
        assert available
        assert identifiability_master(sym, herm, 1e-3).unique
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

    def test_determinism(self):
        r1 = run_experiment(_sut_config())
        r2 = run_experiment(_sut_config())
        assert r1 == r2

    def test_thread_variable_ignored_and_filters_kept(self, monkeypatch):
        # The batch runs its trials in turn, so each trial's catch_warnings
        # restores the filters it saved.  Trials run on threads would
        # interleave those saves and restores; many short trials make such
        # a batch leave an "ignore" filter behind.
        cfg = _sut_config(trials=64, T=1000)
        monkeypatch.delenv("NUJD_THREADS", raising=False)
        unset = run_experiment(cfg)
        monkeypatch.setenv("NUJD_THREADS", "2")
        before = list(warnings.filters)
        report = run_experiment(cfg)
        assert warnings.filters == before
        assert report == unset

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
        # the text that nujd solve prints for the same set
        assert all(
            r["error_message"] == "put needs exactly one Hermitian and one transpose matrix, got 2 + 0"
            for r in rep["trials"]
        )

    def test_noise_hook(self):
        rep = run_experiment(_sut_config(noise_snr_db=30.0))
        assert rep["aggregate"]["failed"] == 0
        assert rep["aggregate"]["amari_median"] < 0.2

    def test_unknown_solver_rejected(self):
        with pytest.raises(ConfigError):
            _sut_config(solver="magic")

    @pytest.mark.parametrize("field, value, message", [
        ("T", 99, "T must be at least 100, got 99"),
        ("sources", (), "sources must list at least one source"),
        ("cond_cap", 0.5, "cond_cap must be at least 1, got 0.5"),
        ("cond_cap", math.nan, "cond_cap must be at least 1, got nan"),
        ("noise_snr_db", math.nan, "noise_snr_db must be a number above -inf, got nan"),
        ("noise_snr_db", -math.inf, "noise_snr_db must be a number above -inf, got -inf"),
    ])
    def test_setting_that_fails_every_trial_rejected(self, field, value, message):
        # each of these used to record every trial as failed
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            _sut_config(**{field: value})
        if field != "noise_snr_db":  # generate runs the same rule
            kw = dict(specs=(SourceSpec("bpsk"),), t=200, cond_cap=100.0)
            kw[{"T": "t", "sources": "specs"}.get(field, field)] = value
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                generate(seed=1, **kw)

    def test_cond_cap_1_needs_a_single_source(self):
        # no random draw of two or more columns has condition number 1, so
        # every trial used to fail after 1000 draws
        message = "cond_cap must be above 1 for two or more sources, got 1.0"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            _sut_config(cond_cap=1.0)
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            generate((SourceSpec("bpsk"), SourceSpec("qpsk")), 200, 1, cond_cap=1.0)
        _, truth = generate((SourceSpec("bpsk"),), 200, 1, cond_cap=1.0)
        assert np.linalg.cond(truth.a.matrix) == 1.0
        one = (SourceSpec("noncircular_gaussian", circularity=0.9),)
        rep = run_experiment(_sut_config(sources=one, cond_cap=1.0, trials=1))
        assert rep["aggregate"]["failed"] == 0

    @pytest.mark.parametrize("field, value, message", [
        ("T", "300", "T must be a positive integer, got '300'"),
        ("T", 300.5, "T must be a positive integer, got 300.5"),
        ("T", True, "T must be a positive integer, got True"),
        ("trials", "2", "trials must be a positive integer, got '2'"),
        ("trials", 2.0, "trials must be a positive integer, got 2.0"),
        ("trials", 0, "trials must be a positive integer, got 0"),
        ("trials", True, "trials must be a positive integer, got True"),
        ("seed", 1.5, "seed must be a non-negative integer, got 1.5"),
        ("seed", -3, "seed must be a non-negative integer, got -3"),
        ("seed", False, "seed must be a non-negative integer, got False"),
    ])
    def test_count_field_of_the_wrong_type_rejected(self, field, value, message):
        # these used to end in a TypeError or a numpy error, at once or in a trial
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            _sut_config(**{field: value})
        if field == "T":  # generate runs the same rule
            with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
                generate((SourceSpec("bpsk"),), value, 1)

    @pytest.mark.parametrize("field, value, message", [
        # each used to end in a TypeError from a comparison
        ("margin", "0.1", "margin must be a number, got '0.1'"),
        ("cond_cap", "5", "cond_cap must be a number, got '5'"),
        ("noise_snr_db", "20", "noise_snr_db must be a number, got '20'"),
        ("equiv_tol", None, "equiv_tol must be a number, got None"),
        ("margin", True, "margin must be a number, got True"),
        ("cond_cap", 10**400, f"cond_cap must be a number, got {10**400}"),
        # a dict source used to build, then end in an AttributeError in a trial
        ("sources", ({"kind": "bpsk"},), "sources[0] must be a SourceSpec, got {'kind': 'bpsk'}"),
        ("T", 2**62, f"T must be at most {(2**63 - 1) // 32} for 2 sources, got {2**62}"),
    ])
    def test_number_field_of_the_wrong_type_rejected(self, field, value, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            _sut_config(**{field: value})

    def test_number_fields_become_floats(self):
        cfg = _sut_config(margin=0, cond_cap=np.int64(50), noise_snr_db=np.float32(20), equiv_tol=0.5)
        assert [type(v) for v in (cfg.margin, cfg.cond_cap, cfg.noise_snr_db, cfg.equiv_tol)] == [float] * 4

    @pytest.mark.parametrize("seed, bad", [
        (1.5, 1.5), (-1, -1), ("3", "3"), (True, True), ([], []), ({}, {}),
        ([1, -1], -1), ([1, 2.0], 2.0), ((np.uint8(3), True), True),
    ])
    def test_generate_seed_rule(self, seed, bad):
        # 1.5, -1 and "3" used to end in a numpy TypeError or ValueError; True was accepted
        message = f"seed must be a non-negative integer, got {bad!r}"
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            generate((SourceSpec("bpsk"),), 200, seed)

    @pytest.mark.parametrize("seed", [np.int64(3), [3], (np.uint8(3),)])
    def test_generate_seed_key(self, seed):
        # one seed and a one-element list of it draw the same trial
        sources, truth = generate((SourceSpec("bpsk"), SourceSpec("qpsk")), 200, 3)
        other_sources, other = generate((SourceSpec("bpsk"), SourceSpec("qpsk")), 200, seed)
        assert other_sources.data.tobytes() == sources.data.tobytes()
        assert other.a.matrix.tobytes() == truth.a.matrix.tobytes()

    @pytest.mark.parametrize("snr_db", [1e300, -1e300, math.inf])
    def test_noise_snr_past_the_float_range_runs(self, snr_db):
        # 10 ** (snr / 10) used to raise OverflowError, and its underflow to 0
        # a ZeroDivisionError, out of run_experiment
        one = (SourceSpec("noncircular_gaussian", circularity=0.9),)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rep = run_experiment(_sut_config(sources=one, T=200, trials=1, noise_snr_db=snr_db))
        # above the float range there is no noise; below it the noise is infinite
        assert rep["trials"][0]["error"] == (None if snr_db > 0 else "NonFiniteEntries")

    def test_numpy_integer_counts_accepted(self):
        cfg = _sut_config(T=np.int64(200), seed=np.uint8(3), trials=np.int32(1))
        assert [type(v) for v in (cfg.T, cfg.seed, cfg.trials)] == [int] * 3
        assert run_experiment(cfg)["aggregate"]["failed"] == 0

    @pytest.mark.parametrize("stat, message", [
        # a zero-length window used to end the batch in a ZeroDivisionError
        ({"statistic": "windowed_covariance", "windows": [(0, 0), (500, 500)]},
         r"^statistics\[0\]: bad window \(start=0, length=0\)$"),
        ({"statistic": "cumulant_slice", "pattern": "0000", "axes": (0, 1), "fixed": (0, 0),
          "part": "hermitian"},
         r"^statistics\[0\]: part applies only to a Hermitian-kind slice"),
        # stray fields changed the population verdict but not the estimate
        ({"statistic": "covariance", "part": "skew"},
         r"^statistics\[0\] has unknown fields \['part'\]$"),
        ({"statistic": "pseudo_covariance", "lag": 3},
         r"^statistics\[0\] has unknown fields \['lag'\]$"),
        ({"statistic": "autocorrelation", "lag": 1, "part": "both"},
         r"^statistics\[0\]\.part must be 'hermitian' or 'skew', got 'both'$"),
        # arguments the estimator rejects used to raise ValueError in the first trial
        ({"statistic": "autocorrelation", "lag": 1000},
         r"^statistics\[0\]: lag must satisfy 0 <= lag < T, got 1000$"),
        ({"statistic": "lagged_cumulant_slice", "pattern": "0101", "offsets": (0, 1000, 0, 0),
          "axes": (0, 1), "fixed": (0, 0)},
         r"^statistics\[0\]: offsets leave no overlapping samples$"),
        ({"statistic": "windowed_covariance", "windows": [(500, 501)]},
         r"^statistics\[0\]: bad window \(start=500, length=501\)$"),
        ({"statistic": "windowed_covariance", "windows": [(0, 1)]},
         r"^statistics\[0\]: bad window \(start=0, length=1\)$"),
        # missing or non-integer fields used to raise a traceback in the first trial
        ({}, r"^statistics\[0\]\.statistic is missing$"),
        ({"statistic": []},
         r"^statistics\[0\]\.statistic must be one of 'covariance', 'pseudo_covariance', "
         r"'autocorrelation', 'pseudo_autocorrelation', 'windowed_covariance', "
         r"'cumulant_slice', 'lagged_cumulant_slice', got \[\]$"),
        (5, r"^statistics\[0\] must be an object$"),
        ({"statistic": "autocorrelation"}, r"^statistics\[0\]\.lag is missing$"),
        ({"statistic": "autocorrelation", "lag": 1.5},
         r"^statistics\[0\]: lag must be an integer, got 1\.5$"),
        ({"statistic": "autocorrelation", "lag": True},
         r"^statistics\[0\]: lag must be an integer, got True$"),
        ({"statistic": "windowed_covariance", "windows": [(0,)]},
         r"^statistics\[0\]: a \(start, length\) window must be 2 integers, got \(0,\)$"),
        ({"statistic": "lagged_cumulant_slice", "pattern": "01", "axes": (0, 1)},
         r"^statistics\[0\]\.offsets is missing$"),
        ({"statistic": "cumulant_slice", "pattern": "0000", "axes": (0, 1, 2), "fixed": (0, 0)},
         r"^statistics\[0\]: need two slice axes, got 3$"),
        ({"statistic": "cumulant_slice", "pattern": "0000", "axes": (0, 1.5), "fixed": (0, 0)},
         r"^statistics\[0\]: slice axes must be a list of integers, got \(0, 1\.5\)$"),
        # the estimator truncated this offset to 1 while the population used a^1.5
        ({"statistic": "lagged_cumulant_slice", "pattern": "01", "offsets": (0, 1.5), "axes": (0, 1)},
         r"^statistics\[0\]: offsets must be a list of integers, got \(0, 1\.5\)$"),
        # a non-iterable pattern used to escape as a TypeError
        ({"statistic": "cumulant_slice", "pattern": 5, "axes": (0, 1), "fixed": (0, 0)},
         r"^statistics\[0\]: pattern bits must be a list of integers, got 5$"),
        ({"statistic": "cumulant_slice", "pattern": (0.5, 1, 0, 0.9), "axes": (0, 1), "fixed": (0, 0)},
         r"^statistics\[0\]: pattern bits must be a list of integers, got \(0\.5, 1, 0, 0\.9\)$"),
    ], ids=["zero_length_window", "part_on_transpose_slice", "part_on_covariance",
            "lag_on_pseudo_covariance", "unknown_part", "lag_at_T", "offset_at_T",
            "window_past_T", "window_shorter_than_m", "empty_entry", "unhashable_name",
            "entry_not_an_object", "missing_lag", "float_lag", "bool_lag", "window_not_a_pair",
            "missing_offsets", "three_axes", "float_axis", "float_offset", "int_pattern",
            "float_pattern_bits"])
    def test_bad_statistic_rejected_in_a_python_built_config(self, stat, message):
        # ExperimentConfig runs the one statistic check, for file and Python configs alike
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(
                sources=(
                    SourceSpec("block_nonstationary", variance_profile=(1.0, 4.0)),
                    SourceSpec("bpsk"),
                ),
                T=1000,
                seed=5,
                statistics=(stat,),
                solver="gevd",
            )

    def test_numpy_integer_lag_accepted(self):
        def report(lag):
            return run_experiment(_sut_config(
                sources=(
                    SourceSpec("ar1_noncircular", circularity=0.9, coefficient=0.9),
                    SourceSpec("ar1_noncircular", circularity=0.3, coefficient=0.2),
                ),
                T=2000,
                trials=1,
                statistics=({"statistic": "autocorrelation", "lag": lag},
                            {"statistic": "pseudo_autocorrelation", "lag": lag}),
                solver="put",
            ))

        rep = report(np.int64(1))
        assert rep["aggregate"]["failed"] == 0
        assert rep == report(1)

    @pytest.mark.parametrize(
        "field, value, interval",
        [
            ("margin", -1.0, "[0, 1)"),
            ("margin", float("nan"), "[0, 1)"),
            ("equiv_tol", 0.0, "(0, 1)"),
            ("equiv_tol", 1.0, "(0, 1)"),
        ],
    )
    def test_out_of_range_tolerance_rejected_in_a_python_built_config(self, field, value, interval):
        # a negative margin certified every trial of this non-identifiable
        # pair as Unique; a zero equiv_tol raised ValueError inside a trial
        with pytest.raises(ConfigError, match=rf"^{field} must be finite and lie in {re.escape(interval)}, got {value}$"):
            _sut_config(
                sources=(
                    SourceSpec("noncircular_gaussian", circularity=0.5),
                    SourceSpec("noncircular_gaussian", circularity=0.5),
                ),
                solver="put",
                **{field: value},
            )

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


def _table_recipes():
    """Every table statistic, slices of both kinds, with "part" wherever it is a field."""
    variants = {
        "covariance": [{}],
        "pseudo_covariance": [{}],
        "autocorrelation": [{"lag": 1}],
        "pseudo_autocorrelation": [{"lag": 2}],
        "windowed_covariance": [{"windows": [(0, 500), (500, 1000)]}],
        "cumulant_slice": [
            {"pattern": "0000", "axes": (0, 1), "fixed": (0, 2)},
            {"pattern": "0101", "axes": (0, 1), "fixed": (1, 0)},
            {"pattern": "00", "axes": (1, 0)},
            {"pattern": "10", "axes": (0, 1)},
        ],
        "lagged_cumulant_slice": [
            {"pattern": "0000", "offsets": (0, 1, 0, 0), "axes": (0, 1), "fixed": (0, 1)},
            {"pattern": "0011", "offsets": (0, 0, 0, 0), "axes": (0, 2), "fixed": (2, 0)},
            {"pattern": "01", "offsets": (0, 1), "axes": (0, 1)},
            {"pattern": "11", "offsets": (2, 0), "axes": (0, 1)},
        ],
    }
    assert set(variants) == set(STATISTICS)
    for name, entries in variants.items():
        for fields in entries:
            stat = {"statistic": name, **fields}
            yield stat
            if "part" in STATISTICS[name].fields:
                yield dict(stat, part="hermitian")
                yield dict(stat, part="skew")


def test_table_kind_and_population_match_the_estimates():
    specs = (
        SourceSpec("bpsk"),
        SourceSpec("qpsk"),
        SourceSpec("ar1_noncircular", circularity=0.5, coefficient=0.6),
    )
    sources, truth = generate(specs, 2000, 51)
    w = mix(sources, truth.a)
    x = np.linalg.inv(truth.a.matrix)
    accepted = 0
    for stat in _table_recipes():
        try:
            _check_statistic(stat, "entry", w.m, w.T)
        except ConfigError:
            # "part" is refused exactly where the estimate is transpose-kind
            plain = {k: v for k, v in stat.items() if k != "part"}
            assert "part" in stat, stat
            assert estimate_statistic(plain, w)[0].kind is CongruenceKind.TRANSPOSE, stat
            continue
        accepted += 1
        kind = _entry_kind(stat)
        mats = estimate_statistic(stat, w)
        assert mats and all(t.kind is kind for t in mats), stat
        diagonals = _population(truth, stat, w.T)
        assert diagonals is not None and len(diagonals) == len(mats), stat
        # A^-1 C A^-dagger is the population diagonal, to the sampling error
        for mat, d in zip(mats, diagonals):
            xt = x.conj().T if kind is CongruenceKind.HERMITIAN else x.T
            err = np.max(np.abs(x @ mat.matrix @ xt - np.diag(d)))
            assert err <= 0.25 * max(1.0, np.max(np.abs(d))), (stat, err)
    assert accepted == 23


class TestTrialMemory:
    """Traced peak of one trial in signal sizes (m * T * 16 bytes).

    tracemalloc sees numpy's buffers, so the peak counts every signal-sized
    array a trial holds at once.  At T = 5e4 the small arrays add under 1%.
    A trial holds the mixtures, their centred copy and one more signal-sized
    temporary (the conjugate in the covariance, or a cumulant slice's left
    product plus its fixed base of a quarter signal).
    """

    T = 50_000

    @staticmethod
    def _peak_signals(cfg):
        run_trial(cfg, 0)  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rec = run_trial(cfg, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec["error"] is None
        return (peak - base) / (len(cfg.sources) * cfg.T * 16)

    def test_sut_trial_peak(self):
        cfg = ExperimentConfig(
            sources=(
                SourceSpec("noncircular_gaussian", circularity=0.9),
                SourceSpec("noncircular_gaussian", circularity=0.3),
                SourceSpec("ar1_noncircular", circularity=0.7, coefficient=0.9),
                SourceSpec("ar1_noncircular", circularity=0.5, coefficient=-0.5),
            ),
            T=self.T,
            seed=3,
            statistics=({"statistic": "covariance"}, {"statistic": "pseudo_covariance"}),
            solver="sut",
        )
        assert self._peak_signals(cfg) <= 3.05

    def test_cum4_trial_peak(self):
        cfg = ExperimentConfig(
            sources=(
                SourceSpec("bpsk"),
                SourceSpec("qpsk"),
                SourceSpec("bpsk", power=2.0),
                SourceSpec("qpsk", power=0.5),
            ),
            T=self.T,
            seed=3,
            statistics=(
                {"statistic": "covariance"},
                {"statistic": "cumulant_slice", "pattern": "0000", "axes": (1, 2), "fixed": (1, 1)},
            ),
            solver="put",
        )
        assert self._peak_signals(cfg) <= 3.3
