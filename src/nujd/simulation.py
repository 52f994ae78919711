"""Ground-truth experiment generation, demixing quality scores, and batch runs.

Sources are generated channel-independent with controllable circularity,
temporal color, and block nonstationarity; the mixing model is noise-free
w(t) = A s(t) with an optional additive-noise hook for exploration.  Every
stream is seeded through numpy SeedSequence spawning, so a (seed, trial)
pair reproduces a trial bit-exactly regardless of batch parallelism.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.signal

from .core import CongruenceKind, DiagonalStack, GLElement, TaggedMatrix, is_essentially_equivalent
from .errors import ConfigError, NujdError
from .solvers import put, sut, two_matrix_same_kind
from .statistics import (
    SignalBlock,
    autocorrelation,
    covariance,
    cumulant_slice,
    lagged_cumulant_slice,
    pseudo_autocorrelation,
    pseudo_covariance,
    windowed_covariances,
    _as_pattern,
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
        if not self.power > 0:
            raise ConfigError("power must be positive")
        if self.kind in ("noncircular_gaussian", "ar1_noncircular"):
            lam = self.circularity
            if lam is None or not 0.0 <= lam <= 1.0:
                raise ConfigError("circularity target must lie in [0, 1]")
        if self.kind == "ar1_noncircular":
            a = self.coefficient
            if a is None or not abs(a) < 1.0:
                raise ConfigError("AR coefficient magnitude must be < 1")
        if self.kind == "block_nonstationary":
            prof = self.variance_profile
            if not prof or any(v <= 0 for v in prof):
                raise ConfigError("variance profile must be non-empty and positive")
            object.__setattr__(self, "variance_profile", tuple(float(v) for v in prof))


@dataclass(frozen=True)
class ExperimentTruth:
    """Ground truth of one generated experiment: mixing, specs, seed."""

    a: GLElement
    specs: tuple
    seed: tuple


def _draw_mixing(rng, m: int, cond_cap: float) -> np.ndarray:
    for _ in range(1000):
        a = (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))) / np.sqrt(2)
        if np.linalg.cond(a) <= cond_cap:
            return a
    raise ConfigError(f"could not draw a mixing matrix with condition <= {cond_cap}")


def _gaussian_pair(rng, t: int):
    return rng.standard_normal(t), rng.standard_normal(t)


def _generate_channel(spec: SourceSpec, rng, t: int) -> np.ndarray:
    root_p = math.sqrt(spec.power)
    if spec.kind == "bpsk":
        return (rng.integers(0, 2, t) * 2.0 - 1.0) * root_p + 0.0j
    if spec.kind == "qpsk":
        return _QPSK_SYMBOLS[rng.integers(0, 4, t)] * root_p
    if spec.kind == "circular_gaussian":
        x, y = _gaussian_pair(rng, t)
        return (x + 1j * y) * (root_p / np.sqrt(2.0))
    if spec.kind == "noncircular_gaussian":
        lam = spec.circularity
        ax = math.sqrt((1.0 + lam) / 2.0)
        bx = math.sqrt((1.0 - lam) / 2.0)
        x, y = _gaussian_pair(rng, t)
        return (ax * x + 1j * bx * y) * root_p
    if spec.kind == "ar1_noncircular":
        lam, a = spec.circularity, spec.coefficient
        ax = math.sqrt((1.0 + lam) / 2.0)
        bx = math.sqrt((1.0 - lam) / 2.0)
        x, y = _gaussian_pair(rng, t)
        innov = (ax * x + 1j * bx * y) * (root_p * math.sqrt(1.0 - a * a))
        x0, y0 = rng.standard_normal(2)
        s0 = (ax * x0 + 1j * bx * y0) * root_p
        s = scipy.signal.lfilter([1.0], [1.0, -a], innov)
        # superpose the exact stationary initial condition
        return s + s0 * np.power(a, np.arange(1, t + 1))
    # block_nonstationary
    prof = spec.variance_profile
    nb = len(prof)
    edges = np.linspace(0, t, nb + 1).astype(int)
    x, y = _gaussian_pair(rng, t)
    s = (x + 1j * y) / np.sqrt(2.0)
    for b in range(nb):
        s[edges[b] : edges[b + 1]] *= math.sqrt(spec.power * prof[b])
    return s


def generate(
    specs: Sequence[SourceSpec], t: int, seed, cond_cap: float = 100.0
) -> tuple[SignalBlock, ExperimentTruth]:
    """Draw independent source channels plus a conditioned random mixing matrix."""
    if t < 100:
        raise ConfigError("need at least 100 samples")
    specs = tuple(specs)
    if not specs:
        raise ConfigError("need at least one source spec")
    ss = np.random.SeedSequence(seed)
    children = ss.spawn(len(specs) + 1)
    a = _draw_mixing(np.random.default_rng(children[0]), len(specs), cond_cap)
    rows = [
        _generate_channel(spec, np.random.default_rng(child), t)
        for spec, child in zip(specs, children[1:])
    ]
    seed_key = (int(seed),) if np.isscalar(seed) else tuple(int(v) for v in seed)
    truth = ExperimentTruth(a=GLElement(a), specs=specs, seed=seed_key)
    return SignalBlock(np.vstack(rows)), truth


def mix(sources: SignalBlock, a: GLElement) -> SignalBlock:
    """Observations w(t) = A s(t), sample-wise exact."""
    if a.m != sources.m:
        raise ConfigError("mixing matrix dimension must match the channel count")
    return SignalBlock(a.matrix @ sources.data)


def demix(w: SignalBlock, x: GLElement) -> SignalBlock:
    """Extracted signals y(t) = X^H w(t)."""
    if x.m != w.m:
        raise ConfigError("demixing matrix dimension must match the channel count")
    return SignalBlock(x.matrix.conj().T @ w.data)


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


def _pop_variance(spec: SourceSpec) -> float:
    if spec.kind == "block_nonstationary":
        return spec.power * float(np.mean(spec.variance_profile))
    return spec.power


def _pop_pseudo_variance(spec: SourceSpec) -> complex:
    if spec.kind == "bpsk":
        return spec.power
    if spec.kind in ("noncircular_gaussian", "ar1_noncircular"):
        return spec.circularity * spec.power
    return 0.0


def _pop_autocov(spec: SourceSpec, lag: int) -> complex:
    if lag == 0:
        return _pop_variance(spec)
    if spec.kind == "ar1_noncircular":
        return (spec.coefficient ** lag) * spec.power
    return 0.0


def _pop_pseudo_autocov(spec: SourceSpec, lag: int) -> complex:
    if lag == 0:
        return _pop_pseudo_variance(spec)
    if spec.kind == "ar1_noncircular":
        return (spec.coefficient ** lag) * spec.circularity * spec.power
    return 0.0


def _pop_window_variance(spec: SourceSpec, start: int, length: int, t: int) -> float:
    if spec.kind != "block_nonstationary":
        return spec.power
    prof = spec.variance_profile
    nb = len(prof)
    edges = np.linspace(0, t, nb + 1).astype(int)
    total = 0.0
    for b in range(nb):
        lo = max(start, int(edges[b]))
        hi = min(start + length, int(edges[b + 1]))
        if hi > lo:
            total += (hi - lo) * spec.power * prof[b]
    return total / length


def _pop_cum4(spec: SourceSpec, bits: tuple) -> Optional[complex]:
    p2 = spec.power ** 2
    nconj = sum(bits)
    if spec.kind == "bpsk":
        return -2.0 * p2
    if spec.kind == "qpsk":
        return -p2 if nconj % 2 == 0 else 0.0
    if spec.kind in ("circular_gaussian", "noncircular_gaussian", "ar1_noncircular"):
        return 0.0
    # block nonstationary: a Gaussian variance mixture
    prof = np.asarray(spec.variance_profile) * spec.power
    if nconj == 2:
        return 2.0 * float(np.var(prof))
    return 0.0


def _pop_order2_entry(spec: SourceSpec, bits: tuple, off: tuple) -> Optional[complex]:
    lag = abs(off[1] - off[0])
    if bits == (0, 1):
        val = _pop_autocov(spec, lag)
        return np.conj(val) if off[0] > off[1] else val
    if bits == (1, 0):
        val = _pop_autocov(spec, lag)
        return val if off[0] > off[1] else np.conj(val)
    if bits == (0, 0):
        return _pop_pseudo_autocov(spec, lag)
    return np.conj(_pop_pseudo_autocov(spec, lag))


def population_diagonal(truth: ExperimentTruth, stat: dict, t: int) -> Optional[np.ndarray]:
    """Per-channel population value of one recipe statistic, or None.

    For cumulant slices the value is the effective diagonal of the model
    C = A D A^dagger, which absorbs the mixing-row factors of the fixed
    slots; the mixing matrix therefore enters for orders above two.
    Returns None when no closed form is implemented for the combination.
    """
    st = stat["statistic"]
    specs = truth.specs
    if st == "covariance":
        return np.array([_pop_variance(s) for s in specs], dtype=np.complex128)
    if st == "pseudo_covariance":
        return np.array([_pop_pseudo_variance(s) for s in specs], dtype=np.complex128)
    if st == "autocorrelation":
        vals = np.array([_pop_autocov(s, stat["lag"]) for s in specs], dtype=np.complex128)
        part = stat.get("part", "hermitian")
        picked = vals.real if part == "hermitian" else vals.imag
        return picked.astype(np.complex128)
    if st == "pseudo_autocorrelation":
        return np.array(
            [_pop_pseudo_autocov(s, stat["lag"]) for s in specs], dtype=np.complex128
        )
    if st == "windowed_covariance":
        return None  # expanded per window by the caller
    if st in ("cumulant_slice", "lagged_cumulant_slice"):
        bits = tuple(_as_pattern(stat["pattern"]).bits)
        k = len(bits)
        offs = tuple(stat.get("offsets", (0,) * k))
        if st == "cumulant_slice":
            offs = (0,) * k
        p, q = stat["axes"]
        fixed = tuple(stat.get("fixed", ()))
        if k == 2:
            vals = [
                _pop_order2_entry(s, bits, (offs[p], offs[q])) for s in specs
            ]
            if any(v is None for v in vals):
                return None
            base = np.array(vals, dtype=np.complex128)
        elif k == 4:
            if len(set(offs)) > 1:
                if any(s.kind == "block_nonstationary" for s in specs):
                    return None
                base = np.zeros(len(specs), dtype=np.complex128)
            else:
                vals = [_pop_cum4(s, bits) for s in specs]
                if any(v is None for v in vals):
                    return None
                base = np.array(vals, dtype=np.complex128)
        else:
            return None
        a = truth.a.matrix
        slot_fixed = [r for r in range(k) if r not in (p, q)]
        for r, c in zip(slot_fixed, fixed):
            col = a[c, :]
            base = base * (np.conj(col) if bits[r] else col)
        part = stat.get("part")
        if part == "hermitian":
            return base.real.astype(np.complex128)
        if part == "skew":
            return base.imag.astype(np.complex128)
        return base
    return None


def population_matrices(truth: ExperimentTruth, statistics, t: int):
    """Population observation matrices A diag(pop) A^dagger per recipe entry.

    Returns a list of TaggedMatrix or None when some population diagonal is
    unavailable.
    """
    mats = []
    a = truth.a.matrix
    for stat in statistics:
        if stat["statistic"] == "windowed_covariance":
            for start, length in stat["windows"]:
                vals = np.array(
                    [_pop_window_variance(s, start, length, t) for s in truth.specs]
                )
                mats.append(
                    TaggedMatrix(a @ np.diag(vals) @ a.conj().T, CongruenceKind.HERMITIAN)
                )
            continue
        vals = population_diagonal(truth, stat, t)
        if vals is None:
            return None
        kind = _stat_kind(stat)
        d = np.diag(vals)
        if kind is CongruenceKind.HERMITIAN:
            mats.append(TaggedMatrix(a @ d.real @ a.conj().T, CongruenceKind.HERMITIAN))
        else:
            mats.append(TaggedMatrix(a @ d @ a.T, CongruenceKind.TRANSPOSE))
    return mats


def _stat_kind(stat: dict) -> CongruenceKind:
    st = stat["statistic"]
    if st in ("covariance", "windowed_covariance"):
        return CongruenceKind.HERMITIAN
    if st in ("pseudo_covariance", "pseudo_autocorrelation"):
        return CongruenceKind.TRANSPOSE
    if st == "autocorrelation":
        return CongruenceKind.HERMITIAN
    if st in ("cumulant_slice", "lagged_cumulant_slice"):
        bits = _as_pattern(stat["pattern"]).bits
        p, q = stat["axes"]
        if stat.get("part") in ("hermitian", "skew"):
            return CongruenceKind.HERMITIAN
        return (
            CongruenceKind.HERMITIAN
            if (bits[p] ^ bits[q]) == 1
            else CongruenceKind.TRANSPOSE
        )
    raise ConfigError(f"unknown statistic {st!r}")


def population_stacks(truth: ExperimentTruth, statistics, t: int):
    """Assemble (transpose stack, Hermitian stack) of population diagonals.

    All-zero diagonals impose no constraint and are dropped.  Returns
    (sym, herm, available); when some statistic has no closed form the
    stacks are None and available is False.
    """
    sym_rows = []
    herm_rows = []
    for stat in statistics:
        if stat["statistic"] == "windowed_covariance":
            for start, length in stat["windows"]:
                vals = np.array(
                    [_pop_window_variance(s, start, length, t) for s in truth.specs],
                    dtype=np.complex128,
                )
                herm_rows.append(vals)
            continue
        vals = population_diagonal(truth, stat, t)
        if vals is None:
            return None, None, False
        if _stat_kind(stat) is CongruenceKind.HERMITIAN:
            herm_rows.append(vals.real.astype(np.complex128))
        else:
            sym_rows.append(vals)
    m = len(truth.specs)

    def build(rows, kind):
        rows = [r for r in rows if np.max(np.abs(r)) > 0]
        arr = np.vstack(rows) if rows else np.zeros((0, m), dtype=np.complex128)
        return DiagonalStack(kind, arr)

    return (
        build(sym_rows, CongruenceKind.TRANSPOSE),
        build(herm_rows, CongruenceKind.HERMITIAN),
        True,
    )


# ---------------------------------------------------------------------------
# batch experiments


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated batch-experiment configuration (see io.load_config)."""

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
        if self.solver not in ("put", "sut", "gevd"):
            raise ConfigError(f"unknown solver {self.solver!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not self.statistics:
            raise ConfigError("statistics recipe must be non-empty")
        object.__setattr__(self, "sources", tuple(self.sources))
        object.__setattr__(self, "statistics", tuple(self.statistics))
        for stat in self.statistics:
            _stat_kind(stat)


def estimate_statistic(stat: dict, w: SignalBlock) -> list:
    """Estimate one recipe entry, returning its tagged matrices."""
    st = stat["statistic"]
    if st == "covariance":
        return [covariance(w)]
    if st == "pseudo_covariance":
        return [pseudo_covariance(w)]
    if st == "autocorrelation":
        corr = autocorrelation(w, stat["lag"])
        return [corr.skew if stat.get("part") == "skew" else corr.hermitian]
    if st == "pseudo_autocorrelation":
        return [pseudo_autocorrelation(w, stat["lag"])]
    if st == "windowed_covariance":
        return windowed_covariances(w, stat["windows"])
    if st == "cumulant_slice":
        sl = cumulant_slice(w, stat["pattern"], tuple(stat.get("fixed", ())), tuple(stat["axes"]))
    elif st == "lagged_cumulant_slice":
        sl = lagged_cumulant_slice(
            w,
            stat["pattern"],
            tuple(stat["offsets"]),
            tuple(stat["axes"]),
            tuple(stat.get("fixed", ())),
        )
    else:
        raise ConfigError(f"unknown statistic {st!r}")
    if stat.get("part") == "skew":
        if sl.skew is None:
            raise ConfigError("transpose-kind slices have no skew part")
        return [sl.skew]
    return [sl.matrix]


def _solve(config: ExperimentConfig, mats: list):
    herm = [t for t in mats if t.kind is CongruenceKind.HERMITIAN]
    sym = [t for t in mats if t.kind is CongruenceKind.TRANSPOSE]
    if config.solver in ("put", "sut"):
        if len(herm) != 1 or len(sym) != 1:
            raise ConfigError(
                f"{config.solver} needs exactly one Hermitian and one transpose "
                f"matrix, got {len(herm)} + {len(sym)}"
            )
        res = (sut if config.solver == "sut" else put)(herm[0], sym[0])
        return res.x, {
            "eig_gap": res.eig_gap,
            "residual_identity": res.residual_identity,
            "residual_offdiag": res.residual_offdiag,
        }
    if len(mats) != 2 or len(herm) not in (0, 2):
        raise ConfigError("gevd needs exactly two matrices of one kind")
    x = two_matrix_same_kind(mats[0], mats[1])
    return x, {}


def run_trial(config: ExperimentConfig, trial: int) -> dict:
    """One seeded trial: generate, mix, estimate, certify, solve, score."""
    record = {"trial": trial, "error": None}
    try:
        sources, truth = generate(
            config.sources, config.T, [config.seed, trial], config.cond_cap
        )
        w = mix(sources, truth.a)
        if config.noise_snr_db is not None:
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, trial, 1]))
            sig_power = float(np.mean(np.abs(w.data) ** 2))
            nvar = sig_power / (10.0 ** (config.noise_snr_db / 10.0))
            noise = (
                rng.standard_normal(w.data.shape) + 1j * rng.standard_normal(w.data.shape)
            ) * math.sqrt(nvar / 2.0)
            w = SignalBlock(w.data + noise)

        sym, herm, available = population_stacks(truth, config.statistics, config.T)
        if available:
            use_sym = sym if sym.n else None
            use_herm = herm if herm.n else None
            try:
                master = identifiability_master(use_sym, use_herm, config.margin)
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
            x, extra = _solve(config, mats)
        record.update(extra)
        g = x.matrix.conj().T @ truth.a.matrix
        record["amari"] = amari_index(g)
        target = GLElement(np.linalg.inv(truth.a.matrix).conj().T)
        eq, _ = is_essentially_equivalent(x, target, config.equiv_tol)
        record["essentially_equivalent"] = bool(eq)
    except (NujdError, np.linalg.LinAlgError) as exc:
        record["error"] = type(exc).__name__
        record["error_message"] = str(exc)
    return record


def worker_count(value: Optional[str], trials: int) -> int:
    """Batch threads for a ``NUJD_THREADS`` value: unset or empty means 1.

    Raises ConfigError unless the value is an integer >= 1, and clamps it to
    [1, min(trials, cpu count)].
    """
    if value is None or not value.strip():
        return 1
    invalid = ConfigError(f"NUJD_THREADS must be an integer >= 1, got {value!r}")
    try:
        requested = int(value)
    except ValueError:
        raise invalid from None
    if requested < 1:
        raise invalid
    return max(1, min(requested, trials, os.cpu_count() or 1))


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the configured batch and aggregate demixing quality.

    Per-trial errors are recorded, not fatal.  The NUJD_THREADS environment
    variable caps batch parallelism (see :func:`worker_count`); results are
    identical either way because every trial owns an independent
    (seed, trial) stream.
    """
    workers = worker_count(os.environ.get("NUJD_THREADS"), config.trials)
    trials = list(range(config.trials))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(lambda t: run_trial(config, t), trials))
    else:
        records = [run_trial(config, t) for t in trials]
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
