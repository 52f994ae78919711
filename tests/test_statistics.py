import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nujd.statistics as statistics_module
from nujd.core import CongruenceKind
from nujd.errors import DimensionMismatch, NonFiniteEntries, RankDeficiencyWarning
from nujd.simulation import estimate_statistic
from nujd.statistics import (
    ConjugationPattern,
    SignalBlock,
    autocorrelation,
    covariance,
    cumulant_slice,
    lagged_cumulant_slice,
    pseudo_autocorrelation,
    pseudo_covariance,
    set_partitions,
    windowed_covariances,
)

from _reference import circularity_coefficient, cumulant

BELL = {2: 2, 3: 5, 4: 15, 5: 52, 6: 203}


def bpsk(rng, t, power=1.0):
    return (rng.integers(0, 2, t) * 2.0 - 1.0) * np.sqrt(power) + 0.0j


def cgauss(rng, t, power=1.0):
    return (rng.standard_normal(t) + 1j * rng.standard_normal(t)) * np.sqrt(power / 2)


def ar1(rng, t, a, lam, power=1.0):
    ax, bx = np.sqrt((1 + lam) / 2), np.sqrt((1 - lam) / 2)
    x, y = rng.standard_normal(t), rng.standard_normal(t)
    e = (ax * x + 1j * bx * y) * np.sqrt(power * (1 - a * a))
    s = np.zeros(t, dtype=complex)
    prev = (ax * rng.standard_normal() + 1j * bx * rng.standard_normal()) * np.sqrt(power)
    for i in range(t):
        prev = a * prev + e[i]
        s[i] = prev
    return s


class TestPartitions:
    def test_bell_numbers(self):
        for k, bell in BELL.items():
            parts = set_partitions(k)
            assert len(parts) == bell
            for p in parts:
                flat = sorted(i for block in p for i in block)
                assert flat == list(range(k))

    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            ConjugationPattern((0,))
        with pytest.raises(ValueError):
            ConjugationPattern((0, 2))
        with pytest.raises(ValueError):
            ConjugationPattern((0,) * 7)
        assert ConjugationPattern.from_string("0101").bits == (0, 1, 0, 1)
        # bits are the integers 0 and 1, never truncated floats, bools or strings
        for bad in ((0.5, 1, 0, 0.9), (True, False), ("0", "1"), 5):
            with pytest.raises(ValueError):
                ConjugationPattern(bad)
        with pytest.raises(ValueError):
            ConjugationPattern.from_string("0a")
        assert ConjugationPattern(np.array([0, 1])).bits == (0, 1)


class TestSignalBlockOwnership:
    def test_writable_input_is_copied(self, rng):
        arr = np.vstack([cgauss(rng, 50), cgauss(rng, 50)])
        block = SignalBlock(arr)
        assert block.data is not arr
        arr[0, 0] = 99.0
        assert block.data[0, 0] != 99.0
        assert not block.data.flags.writeable

    def test_read_only_view_is_copied(self, rng):
        owner = np.vstack([cgauss(rng, 50), cgauss(rng, 50), cgauss(rng, 50)])
        view = owner[:2]
        view.flags.writeable = False
        block = SignalBlock(view)
        assert block.data is not view
        owner[0, 0] = 99.0  # the owner can still write through its own array
        assert block.data[0, 0] != 99.0
        assert not block.data.flags.writeable

    def test_read_only_owning_array_is_adopted(self, rng):
        arr = np.vstack([cgauss(rng, 50), cgauss(rng, 50)])
        arr.flags.writeable = False
        block = SignalBlock(arr)
        assert block.data is arr
        assert not block.data.flags.writeable

    def test_adoption_keeps_the_checks(self):
        arr = np.zeros(10, dtype=complex)
        arr.flags.writeable = False
        with pytest.raises(DimensionMismatch):
            SignalBlock(arr)
        arr = np.zeros((2, 10), dtype=complex)
        arr[1, 3] = np.nan
        arr.flags.writeable = False
        with pytest.raises(NonFiniteEntries):
            SignalBlock(arr)

    def test_centered_once_with_the_formula_bits(self, rng):
        block = SignalBlock(np.vstack([cgauss(rng, 300) + 0.3, bpsk(rng, 300)]))
        xc = block.centered()
        assert block.centered() is xc
        assert not xc.flags.writeable
        want = block.data - block.data.mean(axis=1, keepdims=True)
        assert xc.tobytes() == want.tobytes()
        # the cached array is no field: equality and repr see only data
        assert repr(block) == repr(SignalBlock(block.data))


class TestSecondOrder:
    def test_zero_signal(self):
        w = SignalBlock(np.zeros((2, 200), dtype=complex))
        assert np.allclose(covariance(w).matrix, 0)
        assert np.allclose(pseudo_covariance(w).matrix, 0)

    def test_single_channel_alternating(self):
        w = SignalBlock(np.array([[1.0, -1.0, 1.0, -1.0]], dtype=complex))
        assert covariance(w).matrix[0, 0] == pytest.approx(1.0)

    def test_independent_channels_near_identity(self, rng):
        t = 100000
        w = SignalBlock(np.vstack([cgauss(rng, t), cgauss(rng, t)]))
        c = covariance(w)
        assert c.kind is CongruenceKind.HERMITIAN
        assert np.max(np.abs(c.matrix - np.eye(2))) < 0.05
        ev = np.linalg.eigvalsh(c.matrix)
        assert ev.min() >= -1e-12 * np.trace(c.matrix).real

    def test_pseudo_covariance_circular_vs_bpsk(self, rng):
        t = 100000
        w = SignalBlock(np.vstack([cgauss(rng, t), bpsk(rng, t)]))
        r = pseudo_covariance(w)
        assert r.kind is CongruenceKind.TRANSPOSE
        assert abs(r.matrix[0, 0]) < 0.05
        assert abs(r.matrix[1, 1] - 1.0) < 0.05

    def test_rank_deficiency_warns_at_the_callers_line(self):
        # through estimate_statistic the warning is raised two nujd frames down
        block = SignalBlock(np.zeros((3, 2), dtype=complex))
        for call in (lambda: covariance(block), lambda: estimate_statistic({"statistic": "covariance"}, block)):
            with pytest.warns(RankDeficiencyWarning) as record:
                call()
            assert [w.filename for w in record] == [__file__]

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_autocorrelation_lag0_is_covariance(self, rng, m):
        w = SignalBlock(np.vstack([cgauss(rng, 5000) if c % 2 else bpsk(rng, 5000) for c in range(m)]))
        corr = autocorrelation(w, 0)
        assert corr.hermitian.matrix.tobytes() == covariance(w).matrix.tobytes()
        assert np.allclose(corr.raw, corr.hermitian.matrix + 1j * corr.skew.matrix)

    def test_white_channel_lag1_small(self, rng):
        w = SignalBlock(cgauss(rng, 100000)[None, :])
        assert abs(autocorrelation(w, 1).raw[0, 0]) < 0.05

    def test_ar1_lag1_matches_analytic(self, rng):
        s = ar1(rng, 100000, 0.9, 0.5)
        w = SignalBlock(s[None, :])
        assert autocorrelation(w, 1).raw[0, 0].real == pytest.approx(0.9, abs=0.05)
        p = pseudo_autocorrelation(w, 1)
        assert p.matrix[0, 0].real == pytest.approx(0.9 * 0.5, abs=0.05)

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_pseudo_autocorrelation_lag0(self, rng, m):
        w = SignalBlock(np.vstack([cgauss(rng, 4000) if c % 2 else bpsk(rng, 4000) for c in range(m)]))
        assert pseudo_autocorrelation(w, 0).matrix.tobytes() == pseudo_covariance(w).matrix.tobytes()

    def test_lag_range_checked(self, rng):
        w = SignalBlock(cgauss(rng, 100)[None, :])
        with pytest.raises(ValueError):
            autocorrelation(w, 100)
        with pytest.raises(ValueError):
            pseudo_autocorrelation(w, -1)
        for lag in (1.5, True):
            with pytest.raises(ValueError, match=r"^lag must be an integer, got "):
                autocorrelation(w, lag)
        assert autocorrelation(w, np.int64(1)).raw.tobytes() == autocorrelation(w, 1).raw.tobytes()


class TestWindowedCovariances:
    def test_stationary_windows_agree(self, rng):
        w = SignalBlock(np.vstack([cgauss(rng, 40000), cgauss(rng, 40000)]))
        c1, c2 = windowed_covariances(w, [(0, 20000), (20000, 20000)])
        assert np.max(np.abs(c1.matrix - c2.matrix)) < 0.08

    def test_block_profile_recovered(self, rng):
        t = 40000
        s = cgauss(rng, t)
        s[t // 2 :] *= 2.0  # variance profile (1, 4)
        w = SignalBlock(s[None, :])
        c1, c2 = windowed_covariances(w, [(0, t // 2), (t // 2, t // 2)])
        assert c1.matrix[0, 0].real == pytest.approx(1.0, rel=0.1)
        assert c2.matrix[0, 0].real == pytest.approx(4.0, rel=0.1)

    def test_empty_and_bad_windows(self, rng):
        w = SignalBlock(cgauss(rng, 100)[None, :])
        assert windowed_covariances(w, []) == []
        with pytest.raises(ValueError):
            windowed_covariances(w, [(90, 20)])
        with pytest.raises(ValueError):
            windowed_covariances(w, [(0, 0)])
        for window in [(0,), (0, 50, 1), (0, 50.0), (False, 50)]:
            with pytest.raises(ValueError, match=r"^a \(start, length\) window must be 2 integers"):
                windowed_covariances(w, [window])
        with pytest.raises(ValueError, match=r"^windows must be a list of \(start, length\) pairs"):
            windowed_covariances(w, 5)


class TestCircularity:
    def test_bpsk_is_one(self, rng):
        assert circularity_coefficient(bpsk(rng, 100000)) == pytest.approx(1.0, abs=1e-6)

    def test_circular_is_small(self, rng):
        assert circularity_coefficient(cgauss(rng, 100000)) < 0.02

    def test_real_gaussian_is_one(self, rng):
        assert circularity_coefficient(
            rng.standard_normal(100000).astype(complex)
        ) == pytest.approx(1.0, abs=1e-9)

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError, match="zero power"):
            circularity_coefficient(np.ones(100, dtype=complex))


class TestCumulant:
    def test_second_order_is_variance(self, rng):
        s = cgauss(rng, 100000)
        assert cumulant([s, s], (0, 1)).real == pytest.approx(1.0, abs=0.03)

    def test_bpsk_fourth_order(self, rng):
        s = bpsk(rng, 100000)
        assert cumulant([s] * 4, (0, 0, 0, 0)).real == pytest.approx(-2.0, abs=0.05)

    def test_circular_gaussian_all_patterns_vanish(self, rng):
        s = cgauss(rng, 100000)
        for bits in [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 1, 1, 0)]:
            assert abs(cumulant([s] * 4, bits)) < 0.1

    def test_permutation_symmetry(self, rng):
        chans = [cgauss(rng, 20000), bpsk(rng, 20000), cgauss(rng, 20000) + 0.3]
        bits = (0, 1, 0)
        base = cumulant(chans, bits)
        perm = [2, 0, 1]
        permuted = cumulant([chans[i] for i in perm], tuple(bits[i] for i in perm))
        assert permuted == pytest.approx(base, rel=1e-12, abs=1e-12)

    def test_order_cap(self, rng):
        s = cgauss(rng, 100)
        with pytest.raises(ValueError):
            cumulant([s] * 7, (0,) * 7)

    def test_length_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            cumulant([cgauss(rng, 50), cgauss(rng, 60)], (0, 1))


class TestCumulantSlices:
    def test_cov_slice_equals_covariance(self, rng):
        w = SignalBlock(np.vstack([cgauss(rng, 5000), bpsk(rng, 5000)]))
        sl = cumulant_slice(w, (0, 1), (), (0, 1))
        assert sl.matrix.kind is CongruenceKind.HERMITIAN
        assert np.allclose(sl.matrix.matrix, covariance(w).matrix)

    def test_kind_by_xor_rule(self, rng):
        w = SignalBlock(np.vstack([cgauss(rng, 2000), cgauss(rng, 2000)]))
        assert cumulant_slice(w, (0, 0, 0, 0), (0, 0), (0, 1)).matrix.kind is CongruenceKind.TRANSPOSE
        assert cumulant_slice(w, (1, 0, 0, 0), (0, 0), (0, 1)).matrix.kind is CongruenceKind.HERMITIAN
        assert cumulant_slice(w, (1, 1, 0, 0), (0, 0), (0, 1)).matrix.kind is CongruenceKind.TRANSPOSE

    def test_independent_bpsk_gaussian_diag(self, rng):
        t = 100000
        w = SignalBlock(np.vstack([bpsk(rng, t), cgauss(rng, t)]))
        sl = cumulant_slice(w, (0, 0, 0, 0), (0, 0), (2, 3))
        assert abs(sl.raw[0, 0] + 2.0) < 0.1
        assert abs(sl.raw[1, 1]) < 0.1
        assert abs(sl.raw[0, 1]) < 0.1

    def test_matches_scalar_cumulant(self, rng):
        w = SignalBlock(np.vstack([cgauss(rng, 3000), bpsk(rng, 3000)]))
        sl = cumulant_slice(w, (0, 1, 1, 0), (1, 0), (0, 3))
        for a in range(2):
            for b in range(2):
                chans = [w.data[a], w.data[1], w.data[0], w.data[b]]
                val = cumulant(chans, (0, 1, 1, 0))
                assert sl.raw[a, b] == pytest.approx(val, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize(
        "bits,fixed,axes",
        [
            ((0, 1, 0), (1,), (0, 2)),
            ((0, 1, 1, 0, 0), (1, 0, 1), (0, 4)),
            ((1, 0, 1, 0, 1, 0), (0, 1, 0, 1), (1, 3)),
        ],
    )
    def test_higher_order_slices_match_scalar_cumulant(self, rng, bits, fixed, axes):
        w = SignalBlock(np.vstack([cgauss(rng, 800), bpsk(rng, 800) * 0.7 + 0.2j * cgauss(rng, 800)]))
        sl = cumulant_slice(w, bits, fixed, axes)
        k = len(bits)
        for a in range(2):
            for b in range(2):
                chans = []
                it = iter(fixed)
                for r in range(k):
                    if r == axes[0]:
                        chans.append(w.data[a])
                    elif r == axes[1]:
                        chans.append(w.data[b])
                    else:
                        chans.append(w.data[next(it)])
                val = cumulant(chans, bits)
                assert sl.raw[a, b] == pytest.approx(val, rel=1e-9, abs=1e-12)

    def test_axis_validation(self, rng):
        w = SignalBlock(cgauss(rng, 500)[None, :])
        with pytest.raises(ValueError):
            cumulant_slice(w, (0, 0, 0, 0), (0, 0), (1, 1))
        with pytest.raises(ValueError):
            cumulant_slice(w, (0, 0, 0, 0), (0,), (0, 1))
        with pytest.raises(ValueError):
            cumulant_slice(w, (0, 0, 0, 0), (0, 5), (0, 1))
        with pytest.raises(ValueError, match=r"^need two slice axes, got 3$"):
            cumulant_slice(w, (0, 0, 0, 0), (0, 0), (0, 1, 2))
        with pytest.raises(ValueError, match=r"^slice axes must be a list of integers"):
            cumulant_slice(w, (0, 0, 0, 0), (0, 0), (0, 1.0))
        with pytest.raises(ValueError, match=r"^fixed channel indices must be a list of integers"):
            cumulant_slice(w, (0, 0, 0, 0), (0, True), (0, 1))


class TestLaggedSlices:
    def test_zero_offsets_reduce_to_plain_slice(self, rng):
        w = SignalBlock(np.vstack([cgauss(rng, 4000), bpsk(rng, 4000)]))
        a = cumulant_slice(w, (0, 0, 0, 0), (1, 1), (0, 1))
        b = lagged_cumulant_slice(w, (0, 0, 0, 0), (0, 0, 0, 0), (0, 1), (1, 1))
        assert np.allclose(a.raw, b.raw)

    def test_order2_offsets_match_autocorrelation(self, rng):
        t = 20000
        w = SignalBlock(np.vstack([ar1(rng, t, 0.8, 0.4), cgauss(rng, t)]))
        sl = lagged_cumulant_slice(w, (0, 1), (0, 3), (0, 1))
        ref = autocorrelation(w, 3).raw
        # the cumulant subtracts O(1/T) window-mean products
        assert np.max(np.abs(sl.raw - ref)) < 50.0 / (t - 3)

    def test_colored_vs_white_distinct_diagonal(self, rng):
        t = 100000
        w = SignalBlock(np.vstack([ar1(rng, t, 0.9, 0.5), cgauss(rng, t)]))
        sl = lagged_cumulant_slice(w, (0, 0), (0, 1), (0, 1))
        d = np.abs(np.diag(sl.raw))
        assert d[0] > 0.3 and d[1] < 0.05

    def test_offset_validation(self, rng):
        w = SignalBlock(cgauss(rng, 100)[None, :])
        with pytest.raises(ValueError):
            lagged_cumulant_slice(w, (0, 1), (0, 100), (0, 1))
        with pytest.raises(ValueError):
            lagged_cumulant_slice(w, (0, 1), (0, -1), (0, 1))
        with pytest.raises(ValueError):
            lagged_cumulant_slice(w, (0, 1), (0,), (0, 1))

    def test_float_offset_rejected(self, rng):
        # int(1.5) made the estimate the lag-1 slice while the population took a^1.5
        t = 4000
        w = SignalBlock(np.vstack([ar1(rng, t, 0.9, 0.5), ar1(rng, t, -0.5, 0.5)]))
        with pytest.raises(ValueError, match=r"^offsets must be a list of integers, got \(0, 1\.5\)$"):
            lagged_cumulant_slice(w, "01", (0, 1.5), (0, 1))
        lagged = lagged_cumulant_slice(w, "01", (0, np.int64(1)), (0, 1))
        assert lagged.raw.tobytes() == lagged_cumulant_slice(w, "01", (0, 1), (0, 1)).raw.tobytes()


def _per_block_slice(series, p, q, m, length):
    """Reference partition sum in which every block computes its own moment.

    ``series[r]`` is an (m, length) array for the axis slots and a
    (length,) array for fixed slots.
    """
    moments = {}

    def block_moment(block):
        if block in moments:
            return moments[block]
        fixed = [r for r in block if r != p and r != q]
        base = None
        for r in fixed:
            base = series[r] if base is None else base * series[r]
        has_p = p in block
        has_q = q in block
        if has_p and has_q:
            left = series[p] if base is None else series[p] * base
            val = left @ series[q].T / length
        elif has_p:
            left = series[p] if base is None else series[p] * base
            val = left.mean(axis=1)
        elif has_q:
            left = series[q] if base is None else series[q] * base
            val = left.mean(axis=1)
        else:
            val = complex(base.mean())
        moments[block] = val
        return val

    k = len(series)
    out = np.zeros((m, m), dtype=np.complex128)
    for partition in set_partitions(k):
        nblocks = len(partition)
        coef = complex((-1) ** (nblocks - 1) * math.factorial(nblocks - 1))
        scalars = coef
        vec_p = None
        vec_q = None
        mat = None
        for block in partition:
            val = block_moment(block)
            if np.isscalar(val) or isinstance(val, complex):
                scalars *= val
            elif val.ndim == 2:
                mat = val
            elif p in block:
                vec_p = val
            else:
                vec_q = val
        if mat is not None:
            out += scalars * mat
        else:
            out += scalars * np.outer(vec_p, vec_q)
    return out


def _per_slot_series(w, bits, axes, fixed, offsets):
    """One series per slot: plain slices read the centred signal itself."""
    xc = w.centered()
    n = w.T if offsets is None else w.T - max(offsets)
    it = iter(fixed)
    series = []
    for r, bit in enumerate(bits):
        if offsets is None:
            s = xc if r in axes else xc[next(it)]
        else:
            sl = slice(offsets[r], offsets[r] + n)
            s = xc[:, sl] if r in axes else xc[next(it), sl]
        series.append(np.conj(s) if bit else s)
    return series, n


@st.composite
def slice_cases(draw):
    k = draw(st.integers(2, 6))
    m = draw(st.integers(1, 3))
    bits = tuple(draw(st.lists(st.integers(0, 1), min_size=k, max_size=k)))
    axes = tuple(draw(st.permutations(range(k)))[:2])
    # few channels, so fixed slots often repeat one
    fixed = tuple(draw(st.lists(st.integers(0, m - 1), min_size=k - 2, max_size=k - 2)))
    offsets = draw(st.none() | st.lists(st.integers(0, 3), min_size=k, max_size=k).map(tuple))
    t = draw(st.integers(20, 200))
    seed = draw(st.integers(0, 2**32 - 1))
    return bits, axes, fixed, offsets, m, t, seed


class TestSharedMoments:
    @settings(max_examples=150, deadline=None)
    @given(case=slice_cases())
    def test_slice_bits_match_per_block_reference(self, case):
        bits, axes, fixed, offsets, m, t, seed = case
        rng = np.random.default_rng(seed)
        w = SignalBlock(rng.standard_normal((m, t)) + 1j * rng.standard_normal((m, t)))
        if offsets is None:
            got = cumulant_slice(w, bits, fixed, axes)
        else:
            got = lagged_cumulant_slice(w, bits, offsets, axes, fixed)
        series, n = _per_slot_series(w, bits, axes, fixed, offsets)
        want = _per_block_slice(series, axes[0], axes[1], m, n)
        assert got.raw.tobytes() == want.tobytes()

    def test_blocks_reading_the_same_series_share_one_moment(self, monkeypatch, rng):
        # 0000 with both fixed slots on channel 0: the 15 blocks read 8
        # distinct (axis, fixed) series sequences
        assert len({b for part in set_partitions(4) for b in part}) == 15
        moments = []  # (axis series, fixed series) of each moment computed
        lefts = []  # a left product is an axis series times a non-empty fixed base
        moment = statistics_module._moment

        def counting(axis_series, fixed_series, n):
            got = moment(axis_series, fixed_series, n)
            moments.extend((count, len(fixed_series)) for count in got)
            if axis_series and fixed_series:
                lefts.append(len(fixed_series))
            return got

        monkeypatch.setattr(statistics_module, "_moment", counting)
        w = SignalBlock(np.vstack([bpsk(rng, 1000), cgauss(rng, 1000)]))
        cumulant_slice(w, "0000", (0, 0), (0, 1))
        assert len(moments) == 8
        assert len(set(moments)) == 8
        # the vector moments with one and two fixed slots come from the
        # matrix moments' left products: 2 left products instead of 4
        assert sorted(lefts) == [1, 2]


def _bootstrap_sigma(rng, block, estimator, n_boot=20, block_len=128):
    """Circular block-bootstrap std of an (m, m) matrix estimator."""
    t = block.T
    reps = []
    for _ in range(n_boot):
        starts = rng.integers(0, t, size=int(np.ceil(t / block_len)))
        idx = (starts[:, None] + np.arange(block_len)[None, :]).ravel()[:t] % t
        reps.append(estimator(SignalBlock(block.data[:, idx])))
    return np.array(reps)


class TestMultilinearity:
    def test_second_order_statistics_exactly_multilinear(self, rng):
        t = 20000
        s = SignalBlock(
            np.vstack([bpsk(rng, t), ar1(rng, t, 0.7, 0.6), cgauss(rng, t)])
        )
        a = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / np.sqrt(2)
        w = SignalBlock(a @ s.data)
        pairs = [
            (covariance, "H"),
            (pseudo_covariance, "T"),
            (lambda b: autocorrelation(b, 2).raw, "H"),
            (lambda b: pseudo_autocorrelation(b, 2), "T"),
        ]
        for est, dag in pairs:
            cw = est(w)
            cs = est(s)
            cw = cw.matrix if hasattr(cw, "matrix") else cw
            cs = cs.matrix if hasattr(cs, "matrix") else cs
            mapped = a @ cs @ (a.conj().T if dag == "H" else a.T)
            assert np.linalg.norm(cw - mapped) <= 1e-10 * max(np.linalg.norm(cw), 1.0)

    def test_slice_multilinearity_via_stacked_preimage(self, rng):
        # exact pre-image: axis slots from the sources, fixed slots from the
        # observations; the mapping is then A D A^dagger to rounding error
        t = 20000
        s = SignalBlock(np.vstack([bpsk(rng, t), cgauss(rng, t)]))
        a = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
        w = SignalBlock(a @ s.data)
        bits = (0, 1, 0, 0)
        fixed = (0, 1)
        stacked = SignalBlock(np.vstack([s.data, w.data]))
        pre = cumulant_slice(stacked, bits, (2 + fixed[0], 2 + fixed[1]), (0, 1)).raw[:2, :2]
        slw = cumulant_slice(w, bits, fixed, (0, 1)).raw
        mapped = a @ pre @ a.conj().T  # iota_p ^ iota_q = 1
        assert np.linalg.norm(slw - mapped) <= 1e-10 * max(np.linalg.norm(slw), 1.0)

    def test_conjugated_first_axis_maps_through_conj_a(self, rng):
        # iota_p = 1 slices transform with conj(A) on the left
        t = 20000
        s = SignalBlock(np.vstack([bpsk(rng, t), cgauss(rng, t)]))
        a = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
        w = SignalBlock(a @ s.data)
        bits = (1, 0, 0, 0)
        fixed = (0, 1)
        stacked = SignalBlock(np.vstack([s.data, w.data]))
        pre = cumulant_slice(stacked, bits, (2 + fixed[0], 2 + fixed[1]), (0, 1)).raw[:2, :2]
        slw = cumulant_slice(w, bits, fixed, (0, 1)).raw
        mapped = a.conj() @ pre @ a.T  # conj on axis p, plain transpose on q
        assert np.linalg.norm(slw - mapped) <= 1e-10 * max(np.linalg.norm(slw), 1.0)

    @pytest.mark.parametrize("bits", [(1, 0, 0, 0), (1, 1, 0, 0), (0, 1, 1, 0)])
    def test_carriers_map_through_a(self, rng, bits):
        # the carriers come from raw.conj() when the first axis slot is
        # conjugated, so A, not conj(A), diagonalizes them
        t = 20000
        s = SignalBlock(np.vstack([bpsk(rng, t), cgauss(rng, t)]))
        a = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / np.sqrt(2)
        w = SignalBlock(a @ s.data)
        fixed = (0, 1)
        stacked = SignalBlock(np.vstack([s.data, w.data]))
        pre = cumulant_slice(stacked, bits, (2 + fixed[0], 2 + fixed[1]), (0, 1)).raw[:2, :2]
        carrier = cumulant_slice(w, bits, fixed, (0, 1)).matrix
        if bits[0]:
            pre = pre.conj()
        if carrier.kind is CongruenceKind.HERMITIAN:
            mapped = a @ pre @ a.conj().T
            mapped = (mapped + mapped.conj().T) / 2.0
        else:
            mapped = a @ pre @ a.T
            mapped = (mapped + mapped.T) / 2.0
        assert np.linalg.norm(carrier.matrix - mapped) <= 1e-10 * max(np.linalg.norm(mapped), 1.0)

    def test_independent_source_slices_diagonal_within_bootstrap(self, rng):
        t = 50000
        s = SignalBlock(np.vstack([bpsk(rng, t), cgauss(rng, t)]))

        def est(block):
            return cumulant_slice(block, (0, 0, 0, 0), (0, 0), (2, 3)).raw

        reps = _bootstrap_sigma(rng, s, est)
        sigma_off = np.sqrt(np.sum(np.std(reps, axis=0)[~np.eye(2, dtype=bool)] ** 2))
        raw = est(s)
        off = np.linalg.norm(raw[~np.eye(2, dtype=bool)])
        assert off <= 4.0 * sigma_off + 1e-12

    def test_estimator_consistency_sqrt_t_trend(self, rng):
        # bootstrap spread of the covariance scales like 1/sqrt(T) within 2x
        sigmas = {}
        for t in (1000, 10000, 100000):
            s = SignalBlock(np.vstack([cgauss(rng, t), bpsk(rng, t)]))
            reps = _bootstrap_sigma(rng, s, lambda b: covariance(b).matrix)
            sigmas[t] = float(np.linalg.norm(np.std(reps, axis=0)))
        for t_small, t_big in [(1000, 10000), (10000, 100000)]:
            expected = np.sqrt(t_big / t_small)
            ratio = sigmas[t_small] / sigmas[t_big]
            assert expected / 2 <= ratio <= expected * 2
