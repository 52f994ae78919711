"""Ground-truth experiment generation, demixing quality scores, and batch runs.

Sources are generated channel-independent with controllable circularity,
temporal color, and block nonstationarity; the mixing model is noise-free
w(t) = A s(t) with an optional additive-noise hook for exploration.  Every
stream is seeded through numpy SeedSequence spawning, so a (seed, trial)
pair reproduces a trial bit-exactly.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import numbers
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import CongruenceKind, GLElement, is_essentially_equivalent, require_tol, stacks_from_rows
from .errors import ConfigError, NujdError
from .solvers import solve_pair
from .statistics import (
    SignalBlock,
    autocorrelation,
    covariance,
    cumulant_slice,
    lagged_cumulant_slice,
    pseudo_autocorrelation,
    pseudo_covariance,
    slice_kind,
    windowed_covariances,
    _as_pattern,
    _check_lag,
    _check_slice,
    _check_windows,
    _handover,
    _is_int,
)
from .uniqueness import identifiability_master

SOURCE_KINDS = (
    "bpsk",
    "qpsk",
    "circular_gaussian",
    "noncircular_gaussian",
    "ar1_noncircular",
    "block_nonstationary",
)

_QPSK_SYMBOLS = np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j]) / np.sqrt(2.0)

# The largest power, and power times variance-profile entry, of a source:
# fourth-order population diagonals grow as power^2 (to 2^401), so the
# certifier's Gram products of them and a trial's sample fourth moments stay
# far below the float maximum 2^1024.
_POWER_MAX = 2.0 ** 200
_MAX_SAMPLES = np.iinfo(np.intp).max // 16  # complex128 entries one numpy array holds


def _number(value, name: str) -> float:
    """``value`` as a float: a real number (numpy's included, a bool not)
    within the float range, or a ConfigError naming ``name``."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ConfigError(f"{name} must be a number, got {value!r}")


@dataclass(frozen=True)
class SourceSpec:
    """Recipe for one statistically independent source channel.

    ``circularity`` is the target |E[s^2]|/E[|s|^2] for the noncircular
    Gaussian kinds, ``coefficient`` the real AR(1) pole, and
    ``variance_profile`` the per-block variance multipliers for the
    block-nonstationary kind (scaled by ``power``).
    """

    kind: str
    power: float = 1.0
    circularity: Optional[float] = None
    coefficient: Optional[float] = None
    variance_profile: Optional[tuple] = None

    def __post_init__(self):
        if self.kind not in SOURCE_KINDS:
            raise ConfigError(f"unknown source kind {self.kind!r}")
        for name in ("power", "circularity", "coefficient"):
            if name == "power" or getattr(self, name) is not None:
                object.__setattr__(self, name, _number(getattr(self, name), name))
        prof = self.variance_profile
        if prof is not None:
            if not isinstance(prof, (list, tuple)):
                raise ConfigError(f"variance_profile must be a list of numbers, got {prof!r}")
            prof = tuple(_number(v, f"variance_profile[{i}]") for i, v in enumerate(prof))
            object.__setattr__(self, "variance_profile", prof)
        if not self.power > 0:
            raise ConfigError("power must be positive")
        if not self.power <= _POWER_MAX:
            raise ConfigError(f"power must be at most 2**200, got {self.power}")
        if self.kind in ("noncircular_gaussian", "ar1_noncircular"):
            lam = self.circularity
            if lam is None or not 0.0 <= lam <= 1.0:
                raise ConfigError("circularity target must lie in [0, 1]")
        if self.kind == "ar1_noncircular":
            a = self.coefficient
            if a is None or not abs(a) < 1.0:
                raise ConfigError("AR coefficient magnitude must be < 1")
        if self.kind == "block_nonstationary":
            if not prof or not all(v > 0 for v in prof):
                raise ConfigError("variance profile must be non-empty and positive")
            for i, v in enumerate(prof):
                if not self.power * v <= _POWER_MAX:
                    raise ConfigError(f"power * variance_profile[{i}] must be at most 2**200, got {self.power * v}")


@dataclass(frozen=True)
class ExperimentTruth:
    """Ground truth of one generated experiment: the mixing and the specs."""

    a: GLElement
    specs: tuple


def _draw_mixing(rng, m: int, cond_cap: float) -> np.ndarray:
    for _ in range(1000):
        a = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
        if np.linalg.cond(a) <= cond_cap:
            return a
    raise ConfigError(f"could not draw a mixing matrix with condition <= {cond_cap}")


def _gaussian_pair(rng, t: int):
    return rng.standard_normal(t), rng.standard_normal(t)


@functools.cache
def _ztbsv():
    """BLAS ``ztbsv`` from scipy's compiled module ``scipy.linalg._fblas`` alone.

    ``scipy.linalg.blas.ztbsv`` is this very function object, but importing
    it runs the ``scipy.linalg`` package, about 330 modules and 28 MB of
    RSS; the extension module by itself loads in milliseconds.  A module
    already loaded under the name is reused, and one loaded here is
    registered, so a later ``import scipy.linalg`` shares it.
    """
    name = "scipy.linalg._fblas"
    module = sys.modules.get(name)
    if module is None:
        scipy = importlib.util.find_spec("scipy")  # does not import scipy
        if scipy is None:
            raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
        linalg = [os.path.join(p, "linalg") for p in scipy.submodule_search_locations]
        spec = importlib.machinery.PathFinder.find_spec(name, linalg)
        if spec is None:
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return module.ztbsv


def _generate_channel(spec: SourceSpec, rng, out: np.ndarray) -> None:
    """Write one source channel into ``out``, a complex row of T samples.

    Each kind keeps the ufuncs and operand order of its closed-form
    expression; an in-place ``+=`` or ``*=`` stands for ``a + b`` or
    ``a * b`` only where IEEE commutativity makes it the same operation.
    """
    t = out.size
    root_p = math.sqrt(spec.power)
    if spec.kind == "bpsk":
        # (k * 2.0 - 1.0) * root_p + 0.0j
        x = rng.integers(0, 2, t) * 2.0
        x -= 1.0
        x *= root_p
        np.add(x, 0.0j, out=out)
    elif spec.kind == "qpsk":
        np.take(_QPSK_SYMBOLS, rng.integers(0, 4, t), out=out)
        out *= root_p
    elif spec.kind == "circular_gaussian":
        x, y = _gaussian_pair(rng, t)
        _complex_into(out, 1.0, x, 1j, y)
        out *= root_p / np.sqrt(2.0)
    elif spec.kind == "noncircular_gaussian":
        lam = spec.circularity
        ax = math.sqrt((1.0 + lam) / 2.0)
        bx = math.sqrt((1.0 - lam) / 2.0)
        x, y = _gaussian_pair(rng, t)
        _complex_into(out, ax, x, 1j * bx, y)
        out *= root_p
    elif spec.kind == "ar1_noncircular":
        lam, a = spec.circularity, spec.coefficient
        ax = math.sqrt((1.0 + lam) / 2.0)
        bx = math.sqrt((1.0 - lam) / 2.0)
        x, y = _gaussian_pair(rng, t)
        _complex_into(out, ax, x, 1j * bx, y)  # the innovations
        out *= root_p * math.sqrt(1.0 - a * a)
        x0, y0 = rng.standard_normal(2)
        s0 = (ax * x0 + 1j * bx * y0) * root_p
        # y_n = x_n + a * y_{n-1} as a unit lower-bidiagonal solve, with -a
        # below the diagonal; BLAS does not read a unit diagonal's entries.
        # It runs in place on a contiguous row and returns a copy for a
        # strided one, hence the assignment.
        band = np.full((2, t), -a, dtype=np.complex128, order="F")
        out[:] = _ztbsv()(1, band, out, overwrite_x=1, lower=1, diag=1)
        # superpose the exact stationary initial condition s0 * a^k.  Past
        # k = n, |a|^k < 2^-1080 is below half the smallest subnormal, so
        # a^k is a signed zero and adding s0 * a^k would change no sample.
        n = 0 if a == 0 else min(t, math.ceil(1080 / -math.log2(abs(a))))
        out[:n] += s0 * np.power(a, np.arange(1, n + 1))
    else:  # block_nonstationary
        prof = spec.variance_profile
        nb = len(prof)
        edges = _block_edges(t, nb)
        x, y = _gaussian_pair(rng, t)
        _complex_into(out, 1.0, x, 1j, y)
        out /= np.sqrt(2.0)
        for b in range(nb):
            out[edges[b] : edges[b + 1]] *= math.sqrt(spec.power * prof[b])


def _block_edges(t: int, blocks: int) -> np.ndarray:
    """Sample indices that cut T samples into the blocks of a variance profile;
    the generator and the population diagonals both use them."""
    return np.linspace(0, t, blocks + 1).astype(int)


def _complex_into(out: np.ndarray, ax: float, x: np.ndarray, by: complex, y: np.ndarray) -> None:
    """out = ax * x + by * y, with ``x`` scaled in place (1.0 * x is x, bit for bit)."""
    np.multiply(by, y, out=out)
    x *= ax
    out += x


def _check_count(value, name: str, low: int = 1, high: Optional[int] = None) -> int:
    """``value`` as an int: an integer in [low, high] (no upper bound without
    ``high``), not a bool or an integral float, or a ConfigError naming ``name``."""
    if not _is_int(value) or value < low or (high is not None and value > high):
        if high is not None:
            want = f"an integer in {low}..{high}"
        else:
            want = "a positive integer" if low == 1 else "a non-negative integer"
        raise ConfigError(f"{name} must be {want}, got {value!r}")
    return int(value)


def _check_generation(specs: tuple, t: int, cond_cap: float, noise_snr_db: Optional[float] = None) -> int:
    """``T`` as an int, or a ConfigError naming the field for a setting under
    which no trial can run: a ``T`` that is not an integer of at least 100, no
    sources or one that is not a SourceSpec, a cond_cap below 1 (no matrix has
    one) or of 1 with two or more sources (no random draw has one), or a NaN or
    -inf noise SNR."""
    t = _check_count(t, "T")
    if t < 100:
        raise ConfigError(f"T must be at least 100, got {t}")
    if not specs:
        raise ConfigError("sources must list at least one source")
    for i, spec in enumerate(specs):
        if not isinstance(spec, SourceSpec):
            raise ConfigError(f"sources[{i}] must be a SourceSpec, got {spec!r}")
    if t > _MAX_SAMPLES // len(specs):  # numpy would refuse the (m, T) signal with a ValueError
        raise ConfigError(f"T must be at most {_MAX_SAMPLES // len(specs)} for {len(specs)} sources, got {t}")
    if not cond_cap >= 1:
        raise ConfigError(f"cond_cap must be at least 1, got {cond_cap}")
    if len(specs) > 1 and not cond_cap > 1:
        raise ConfigError(f"cond_cap must be above 1 for two or more sources, got {cond_cap}")
    if noise_snr_db is not None and not noise_snr_db > -math.inf:
        raise ConfigError(f"noise_snr_db must be a number above -inf, got {noise_snr_db}")
    return t


def generate(
    specs: Sequence[SourceSpec], t: int, seed, cond_cap: float = 100.0
) -> tuple[SignalBlock, ExperimentTruth]:
    """Draw independent source channels plus a conditioned random mixing matrix."""
    specs = tuple(specs)
    cond_cap = _number(cond_cap, "cond_cap")
    t = _check_generation(specs, t, cond_cap)
    seeds = seed if isinstance(seed, (list, tuple)) and seed else [seed]  # one seed or a non-empty list
    for v in seeds:
        _check_count(v, "seed", 0)
    ss = np.random.SeedSequence(seed)
    children = ss.spawn(len(specs) + 1)
    a = _draw_mixing(np.random.default_rng(children[0]), len(specs), cond_cap)
    data = np.empty((len(specs), t), dtype=np.complex128)
    for row, spec, child in zip(data, specs, children[1:]):
        _generate_channel(spec, np.random.default_rng(child), row)
    truth = ExperimentTruth(a=GLElement(a), specs=specs)
    return SignalBlock(_handover(data)), truth


def mix(sources: SignalBlock, a: GLElement) -> SignalBlock:
    """Observations w(t) = A s(t), sample-wise exact."""
    if a.m != sources.m:
        raise ConfigError("mixing matrix dimension must match the channel count")
    return SignalBlock(_handover(a.matrix @ sources.data))


def amari_index(g) -> float:
    """Demixing score of the global matrix g = X^H A.

    Zero exactly when g is diagonal-times-permutation; normalized to [0, 1]
    (the all-ones matrix scores 1).  Exactly invariant under row/column
    permutations, unit-modulus diagonal scaling on either side, and global
    scalar rescaling; general independent row and column rescalings reweight
    the ratios, as they must for any max-normalized index.
    """
    a = np.abs(np.asarray(g, dtype=np.complex128))
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ConfigError("amari_index needs a square matrix")
    m = a.shape[0]
    row_max = a.max(axis=1)
    col_max = a.max(axis=0)
    if np.any(row_max == 0) or np.any(col_max == 0):
        raise ConfigError("amari_index is undefined for zero rows or columns")
    if m == 1:
        return 0.0
    rows = (a / row_max[:, None]).sum(axis=1) - 1.0
    cols = (a / col_max[None, :]).sum(axis=0) - 1.0
    return float((rows.sum() + cols.sum()) / (2.0 * m * (m - 1)))


# ---------------------------------------------------------------------------
# population (analytic) diagonals


def _pop_window_variance(spec: SourceSpec, start: int, length: int, t: int) -> float:
    if spec.kind != "block_nonstationary":
        return spec.power
    edges = _block_edges(t, len(spec.variance_profile))
    total = 0.0
    for b, v in enumerate(spec.variance_profile):
        lo = max(start, int(edges[b]))
        hi = min(start + length, int(edges[b + 1]))
        if hi > lo:
            total += (hi - lo) * spec.power * v
    return total / length


def _pop_cum4(spec: SourceSpec, bits: tuple) -> complex:
    p2 = spec.power ** 2
    nconj = sum(bits)
    if spec.kind == "bpsk":
        return -2.0 * p2
    if spec.kind == "qpsk":
        return -p2 if nconj % 2 == 0 else 0.0
    if spec.kind == "block_nonstationary" and nconj == 2:  # a Gaussian variance mixture
        return 2.0 * float(np.var(np.asarray(spec.variance_profile) * spec.power))
    return 0.0


def _pop_order2_entry(spec: SourceSpec, pseudo: bool, lag: int) -> float:
    """E[s(t) s(t+lag)^*], or E[s(t) s(t+lag)] when ``pseudo``, of one source.

    Every source parameter is a real float, so the value is real and the
    same for both time orders and both conjugations.
    """
    if spec.kind == "ar1_noncircular":
        return (spec.coefficient ** lag) * (spec.circularity if pseudo else 1.0) * spec.power
    if lag != 0:
        return 0.0
    if pseudo:  # the circularity coefficient times the power
        return {"bpsk": 1.0, "noncircular_gaussian": spec.circularity}.get(spec.kind, 0.0) * spec.power
    if spec.kind == "block_nonstationary":
        return spec.power * float(np.mean(spec.variance_profile))
    return spec.power


def _as_slice(stat: dict) -> tuple:
    """(bits, offsets, axes, fixed) of the cumulant slice a recipe entry is:
    a second-order statistic is the order-2 slice of its table pattern at
    time offsets (0, lag), lag 0 when the entry has none."""
    bits = STATISTICS[stat["statistic"]].pattern
    if bits is not None:
        return bits, (0, stat.get("lag", 0)), (0, 1), ()
    bits = _as_pattern(stat["pattern"]).bits
    offsets = tuple(stat.get("offsets", (0,) * len(bits)))
    return bits, offsets, tuple(stat["axes"]), tuple(stat.get("fixed", ()))


def _entry_kind(stat: dict) -> CongruenceKind:
    """The congruence kind of every matrix a recipe entry yields."""
    bits, _, axes, _ = _as_slice(stat)
    return slice_kind(bits, axes)


def _population(truth: ExperimentTruth, stat: dict, t: int) -> Optional[list]:
    """Population diagonals of a recipe entry, one per matrix, in the model
    C = A D A^H or A D A^T of the entry's kind.

    A slice's diagonal absorbs the mixing-row factors of its fixed slots,
    so the mixing matrix enters for orders above two; it is conjugated when
    the first axis slot is, as the estimate's carrier is.  A Hermitian-kind
    diagonal is its real part (a window's is real), or its imaginary part
    for ``part`` "skew".  None when no closed form is implemented: orders
    above four, and lagged order-four slices of block-nonstationary sources.
    """
    specs = truth.specs
    if stat["statistic"] == "windowed_covariance":
        return [
            np.array([_pop_window_variance(s, start, length, t) for s in specs], dtype=np.complex128)
            for start, length in stat.get("windows", ())
        ]
    bits, offs, (p, q), fixed = _as_slice(stat)
    if len(bits) == 2:
        base = [_pop_order2_entry(s, bits[0] == bits[1], abs(offs[q] - offs[p])) for s in specs]
    elif len(bits) == 4 and len(set(offs)) == 1:
        base = [_pop_cum4(s, bits) for s in specs]
    elif len(bits) == 4 and all(s.kind != "block_nonstationary" for s in specs):
        base = [0.0] * len(specs)
    else:
        return None
    base = np.array(base, dtype=np.complex128)
    for r, c in zip([r for r in range(len(bits)) if r not in (p, q)], fixed):  # the fixed slots
        col = truth.a.matrix[c, :]
        base = base * (np.conj(col) if bits[r] else col)
    if bits[p]:
        base = np.conj(base)
    if slice_kind(bits, (p, q)) is CongruenceKind.TRANSPOSE:
        return [base]
    return [(base.imag if stat.get("part") == "skew" else base.real).astype(np.complex128)]


# ---------------------------------------------------------------------------
# the statistic table


def _pick(stat: dict, carrier, skew) -> list:
    """The skew companion when the entry's ``part`` is "skew", else the carrier;
    ``_check_statistic`` allows "skew" only on entries that have one."""
    return [skew if stat.get("part") == "skew" else carrier]


def _estimate_autocorrelation(stat: dict, w: SignalBlock) -> list:
    corr = autocorrelation(w, stat["lag"])
    return _pick(stat, corr.hermitian, corr.skew)


def _estimate_slice(stat: dict, w: SignalBlock) -> list:
    axes, fixed = tuple(stat["axes"]), tuple(stat.get("fixed", ()))
    if "offsets" in stat:
        sl = lagged_cumulant_slice(w, stat["pattern"], tuple(stat["offsets"]), axes, fixed)
    else:
        sl = cumulant_slice(w, stat["pattern"], fixed, axes)
    return _pick(stat, sl.matrix, sl.skew)


@dataclass(frozen=True)
class Statistic:
    """A recipe statistic: the fields it takes besides "statistic", its
    estimator from a SignalBlock, and the conjugation bits of the order-2
    slice that a second-order statistic is (None for the slices, which name
    their own).  Estimators look the statistics functions up in this module
    when they run."""

    fields: tuple
    estimate: Callable
    pattern: Optional[tuple]


STATISTICS = {
    "covariance": Statistic((), lambda stat, w: [covariance(w)], (0, 1)),
    "pseudo_covariance": Statistic((), lambda stat, w: [pseudo_covariance(w)], (0, 0)),
    "autocorrelation": Statistic(("lag", "part"), _estimate_autocorrelation, (0, 1)),
    "pseudo_autocorrelation": Statistic(
        ("lag",), lambda stat, w: [pseudo_autocorrelation(w, stat["lag"])], (0, 0)
    ),
    "windowed_covariance": Statistic(
        ("windows",), lambda stat, w: windowed_covariances(w, stat.get("windows", ())), (0, 1)
    ),
    "cumulant_slice": Statistic(("pattern", "axes", "fixed", "part"), _estimate_slice, None),
    "lagged_cumulant_slice": Statistic(
        ("pattern", "offsets", "axes", "fixed", "part"), _estimate_slice, None
    ),
}


def _check_statistic(stat, path: str, m: int, t: int) -> None:
    """ConfigError naming ``path`` (the entry's JSON path) for an entry that
    cannot be estimated on m channels of T samples: not an object, no known
    statistic name, a field its statistic does not take, a required field
    missing, a ``part`` other than "hermitian" or "skew", an argument its
    estimator rejects, or a ``part`` on a transpose-kind entry."""
    if not isinstance(stat, dict):
        raise ConfigError(f"{path} must be an object")
    if "statistic" not in stat:
        raise ConfigError(f"{path}.statistic is missing")
    name = stat["statistic"]
    if not isinstance(name, str) or name not in STATISTICS:
        choices = ", ".join(repr(k) for k in STATISTICS)
        raise ConfigError(f"{path}.statistic must be one of {choices}, got {name!r}")
    entry = STATISTICS[name]
    extra = set(stat) - {"statistic", *entry.fields}
    if extra:
        raise ConfigError(f"{path} has unknown fields {sorted(extra)}")
    for key in entry.fields:
        if key not in stat and key not in ("fixed", "part", "windows"):  # the optional fields
            raise ConfigError(f"{path}.{key} is missing")
    if stat.get("part", "hermitian") not in ("hermitian", "skew"):
        raise ConfigError(f"{path}.part must be 'hermitian' or 'skew', got {stat['part']!r}")
    try:  # the estimator's own argument rules, then the part rule
        if "lag" in stat:
            _check_lag(stat["lag"], t)
        _check_windows(stat.get("windows", ()), m, t)
        if "pattern" in stat:
            pat = _as_pattern(stat["pattern"])
            offsets = stat.get("offsets", (0,) * len(pat))
            _check_slice(pat, offsets, stat["axes"], stat.get("fixed", ()), m, t)
        if "part" in stat and _entry_kind(stat) is CongruenceKind.TRANSPOSE:
            raise ConfigError(
                "part applies only to a Hermitian-kind slice; axes with equal "
                "conjugation bits make this slice transpose-kind"
            )
    except (ConfigError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def estimate_statistic(stat: dict, w: SignalBlock) -> list:
    """Estimate one recipe entry, returning its tagged matrices."""
    return STATISTICS[stat["statistic"]].estimate(stat, w)


def population_stacks(truth: ExperimentTruth, statistics, t: int):
    """Assemble (transpose stack, Hermitian stack) of population diagonals.

    All-zero diagonals impose no constraint and are dropped.  Returns
    (sym, herm, available); when some statistic has no closed form the
    stacks are None and available is False.
    """
    rows = []
    for stat in statistics:
        diagonals = _population(truth, stat, t)
        if diagonals is None:
            return None, None, False
        kind = _entry_kind(stat)
        rows += [(kind, d) for d in diagonals if np.max(np.abs(d)) > 0]
    return (*stacks_from_rows(rows, len(truth.specs)), True)


# ---------------------------------------------------------------------------
# batch experiments


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated batch-experiment configuration (see io.config_from_dict)."""

    sources: tuple
    T: int
    seed: int
    statistics: tuple
    solver: str = "put"
    trials: int = 1
    margin: float = 1e-3
    cond_cap: float = 100.0
    noise_snr_db: Optional[float] = None
    equiv_tol: float = 1e-2

    def __post_init__(self):
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "statistics", tuple(self.statistics))
        for name in ("margin", "cond_cap", "noise_snr_db", "equiv_tol"):
            if name != "noise_snr_db" or self.noise_snr_db is not None:
                object.__setattr__(self, name, _number(getattr(self, name), name))
        object.__setattr__(self, "T", _check_generation(self.sources, self.T, self.cond_cap, self.noise_snr_db))
        for name, low in (("seed", 0), ("trials", 1)):  # a numpy integer becomes an int
            object.__setattr__(self, name, _check_count(getattr(self, name), name, low))
        if self.solver not in ("put", "sut", "gevd"):
            raise ConfigError(f"unknown solver {self.solver!r}")
        if not self.statistics:
            raise ConfigError("statistics recipe must be non-empty")
        require_tol(self.margin, "margin", error=ConfigError)
        require_tol(self.equiv_tol, "equiv_tol", error=ConfigError, zero_ok=False)
        for i, stat in enumerate(self.statistics):
            _check_statistic(stat, f"statistics[{i}]", len(self.sources), self.T)


def _add_noise(w: SignalBlock, snr_db: float, rng) -> SignalBlock:
    """w plus circular white Gaussian noise at ``snr_db`` below its mean power."""
    sig_power = float(np.mean(np.abs(w.data) ** 2))
    try:
        nvar = sig_power / (10.0 ** (snr_db / 10.0))
    except OverflowError:  # a ratio past the float range: no noise, as at +inf
        nvar = 0.0
    except ZeroDivisionError:  # a ratio that underflows to 0: unbounded noise
        nvar = math.inf
    # (re + 1j * im) * scale + w, built in one buffer; the real parts are drawn first
    re = rng.standard_normal(w.data.shape)
    noise = 1j * rng.standard_normal(w.data.shape)
    noise += re
    noise *= math.sqrt(nvar / 2.0)
    noise += w.data
    return SignalBlock(_handover(noise))


def run_trial(config: ExperimentConfig, trial: int) -> dict:
    """One seeded trial: generate, mix, estimate, certify, solve, score."""
    record = {"trial": trial, "error": None}
    try:
        sources, truth = generate(
            config.sources, config.T, [config.seed, trial], config.cond_cap
        )
        w = mix(sources, truth.a)
        del sources  # a signal-sized array that no later step reads
        if config.noise_snr_db is not None:
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, trial, 1]))
            w = _add_noise(w, config.noise_snr_db, rng)

        sym, herm, available = population_stacks(truth, config.statistics, config.T)
        if available:
            try:
                master = identifiability_master(sym, herm, config.margin)
                record["identifiability"] = master.verdict
                record["rho_transpose"] = master.rho_transpose
                record["rho_hermitian"] = master.rho_hermitian
            except NujdError as exc:
                record["identifiability"] = "unavailable"
                record["identifiability_error"] = type(exc).__name__
        else:
            record["identifiability"] = "unavailable"

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mats = []
            for stat in config.statistics:
                mats.extend(estimate_statistic(stat, w))
            res = solve_pair(mats, config.solver)
        if config.solver != "gevd":
            record["eig_gap"] = res.eig_gap
            record["residual_identity"] = res.residual_identity
            record["residual_offdiag"] = res.residual_offdiag
        g = res.x.matrix.conj().T @ truth.a.matrix
        record["amari"] = amari_index(g)
        target = GLElement(np.linalg.inv(truth.a.matrix).conj().T)
        eq, _ = is_essentially_equivalent(res.x, target, config.equiv_tol)
        record["essentially_equivalent"] = bool(eq)
    except (NujdError, np.linalg.LinAlgError) as exc:
        record["error"] = type(exc).__name__
        record["error_message"] = str(exc)
    return record


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the configured batch, one trial after another, and aggregate
    demixing quality.

    Per-trial errors are recorded, not fatal.
    """
    records = [run_trial(config, t) for t in range(config.trials)]
    amaris = [r["amari"] for r in records if r.get("error") is None and "amari" in r]
    aggregate = {"trials": config.trials, "failed": sum(1 for r in records if r["error"])}
    if amaris:
        q25, q50, q75 = np.percentile(amaris, [25, 50, 75])
        aggregate["amari_median"] = float(q50)
        aggregate["amari_iqr"] = float(q75 - q25)
    return {
        "seed": config.seed,
        "solver": config.solver,
        "aggregate": aggregate,
        "trials": records,
    }
