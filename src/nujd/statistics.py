"""Sample statistics that produce the matrices to be jointly diagonalized.

All expectations are time averages over a single realization (ergodic
surrogate) with 1/T normalization after mean removal.  Congruence kinds
follow the construction: plain/pseudo second-order statistics are Hermitian
resp. transpose kind, and a cumulant slice on axes (p, q) is Hermitian kind
iff exactly one of the two axis conjugation bits is set.

Cumulants use the full partition-sum formula

    cum(x_1, ..., x_k) = sum over partitions {J_1..J_p} of
        (-1)^(p-1) (p-1)! * prod_b E[prod_{q in J_b} x_q]

with conjugation applied per slot before multiplication.  Partitions are
enumerated exactly (Bell(6) = 203 at the order cap) and cached per order.
A slice computes each distinct block moment once: blocks whose slots read
the same series (channel, conjugation bit and time offset) in the same
order share one moment, and a matrix moment's left product (first axis
series times the fixed base) also gives the vector moment that reads the
same series without the second axis slot.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import CongruenceKind, TaggedMatrix, hermitian_skew_split, require_finite
from .errors import DimensionMismatch, RankDeficiencyWarning, warn

MAX_CUMULANT_ORDER = 6


@dataclass(frozen=True)
class SignalBlock:
    """Multichannel complex time series, shape (channels m, samples T).

    ``data`` is always read-only.  A read-only array that owns its memory is
    adopted as it is: that is how the library's producers hand over a fresh
    result.  A writable array or a view is copied, so later writes through
    the caller's array do not reach the block.
    """

    data: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.data, dtype=np.complex128)
        if d.ndim != 2:
            raise DimensionMismatch("signal data must be a 2-d (m, T) array")
        require_finite(d, "signal contains NaN or infinite samples")
        if d.flags.writeable or d.base is not None:
            d = d.copy()
            d.flags.writeable = False
        object.__setattr__(self, "data", d)

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def T(self) -> int:
        return self.data.shape[1]

    def centered(self) -> np.ndarray:
        """The signal minus its per-channel mean, computed once per block (read-only)."""
        # kept outside the dataclass fields, so == and repr do not see it
        xc = self.__dict__.get("_centered")
        if xc is None:
            xc = _handover(self.data - self.data.mean(axis=1, keepdims=True))
            object.__setattr__(self, "_centered", xc)
        return xc


def _handover(a: np.ndarray) -> np.ndarray:
    """Mark a freshly computed array read-only, so SignalBlock adopts it uncopied."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ConjugationPattern:
    """Binary vector enabling complex conjugation per tensor slot; each bit
    is an integer (numpy's included, a bool not) equal to 0 or 1."""

    bits: tuple

    def __post_init__(self):
        bits = _integers(self.bits, "pattern bits")
        if not 2 <= len(bits) <= MAX_CUMULANT_ORDER:
            raise ValueError(
                f"pattern length must be 2..{MAX_CUMULANT_ORDER}, got {len(bits)}"
            )
        if any(b not in (0, 1) for b in bits):
            raise ValueError("pattern bits must be 0 or 1")
        object.__setattr__(self, "bits", tuple(map(int, bits)))

    @classmethod
    def from_string(cls, s: str) -> "ConjugationPattern":
        return cls(tuple(int(ch) if ch in "01" else ch for ch in s))

    def __len__(self):
        return len(self.bits)


def _as_pattern(pattern) -> ConjugationPattern:
    if isinstance(pattern, ConjugationPattern):
        return pattern
    if isinstance(pattern, str):
        return ConjugationPattern.from_string(pattern)
    return ConjugationPattern(pattern)


@dataclass(frozen=True)
class LaggedCorrelation:
    """Raw lagged correlation matrix with its Hermitian/skew split attached.

    The raw matrix E[w(t) w(t+lag)^H] is generally not Hermitian; ``raw`` =
    ``hermitian.matrix`` + i * ``skew.matrix`` and both parts are certified
    Hermitian-kind carriers.
    """

    raw: np.ndarray
    hermitian: TaggedMatrix
    skew: TaggedMatrix


@dataclass(frozen=True)
class CumulantSlice:
    """An (m x m) matrix cut from a cumulant tensor by varying two slots.

    ``matrix`` is the certified tagged carrier: the symmetrized slice for
    transpose kind, or the Hermitian part of the split for Hermitian kind
    (whose skew companion is then in ``skew``).  Both are cut from
    ``raw.conj()`` when the first axis slot is conjugated, because ``raw``
    then maps through conj(A), and from ``raw`` otherwise.
    """

    raw: np.ndarray
    matrix: TaggedMatrix
    skew: Optional[TaggedMatrix]


@functools.lru_cache(maxsize=None)
def set_partitions(k: int) -> tuple:
    """All partitions of {0..k-1} as tuples of sorted index blocks."""
    if k == 0:
        return ((),)
    parts = []
    for smaller in set_partitions(k - 1):
        last = k - 1
        for i in range(len(smaller)):
            parts.append(smaller[:i] + (smaller[i] + (last,),) + smaller[i + 1:])
        parts.append(smaller + ((last,),))
    return tuple(parts)


def _is_int(value) -> bool:
    """An integer, numpy's included; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _integers(values, name: str, size: Optional[int] = None) -> tuple:
    """``values`` as a tuple of integers, ``size`` of them when given, or ValueError."""
    out = tuple(values) if isinstance(values, Iterable) else None
    if out is None or not all(map(_is_int, out)) or size not in (None, len(out)):
        raise ValueError(f"{name} must be {size or 'a list of'} integers, got {values!r}")
    return out


def _check_lag(lag: int, t: int) -> None:
    if not _is_int(lag):
        raise ValueError(f"lag must be an integer, got {lag!r}")
    if not 0 <= lag < t:
        raise ValueError(f"lag must satisfy 0 <= lag < T, got {lag}")


def _lagged(w: SignalBlock, lag: int, conj: bool) -> np.ndarray:
    """Raw (1/(T-lag)) sum w(t) w(t+lag)^T, centred, second factor conjugated if ``conj``."""
    _check_lag(lag, w.T)
    xc = w.centered()
    n = w.T - lag
    right = xc[:, lag:]
    # lag-0 factors are views of one buffer: numpy's symmetric a @ a.T, bit for bit
    return xc[:, :n] @ (right.conj() if conj else right).T / n


def _carriers(raw: np.ndarray, kind: CongruenceKind) -> tuple:
    """(carrier, skew companion): the symmetric part and None, or the Hermitian/skew split."""
    if kind is CongruenceKind.TRANSPOSE:
        return TaggedMatrix((raw + raw.T) / 2.0, kind), None
    herm, skew = hermitian_skew_split(raw)
    return TaggedMatrix(herm, kind), TaggedMatrix(skew, kind)


def covariance(w: SignalBlock) -> TaggedMatrix:
    """Sample covariance (1/T) sum w(t) w(t)^H after mean removal."""
    if w.T < w.m:
        warn(f"T = {w.T} < m = {w.m}: covariance is rank deficient", RankDeficiencyWarning)
    return _carriers(_lagged(w, 0, True), CongruenceKind.HERMITIAN)[0]


def pseudo_covariance(w: SignalBlock) -> TaggedMatrix:
    """Sample pseudo-covariance (1/T) sum w(t) w(t)^T, complex symmetric."""
    return _carriers(_lagged(w, 0, False), CongruenceKind.TRANSPOSE)[0]


def autocorrelation(w: SignalBlock, lag: int) -> LaggedCorrelation:
    """Lagged correlation (1/(T-lag)) sum w(t) w(t+lag)^H with split parts.

    The raw matrix is not Hermitian in general; both Hermitian and skew
    parts are attached so callers can feed certified carriers downstream.
    """
    raw = _lagged(w, lag, True)
    herm, skew = _carriers(raw, CongruenceKind.HERMITIAN)
    return LaggedCorrelation(raw=raw, hermitian=herm, skew=skew)


def pseudo_autocorrelation(w: SignalBlock, lag: int) -> TaggedMatrix:
    """Lagged pseudo-correlation (1/(T-lag)) sum w(t) w(t+lag)^T, symmetrized."""
    return _carriers(_lagged(w, lag, False), CongruenceKind.TRANSPOSE)[0]


def _check_windows(windows: Sequence[tuple], m: int, t: int) -> None:
    if not isinstance(windows, Iterable):
        raise ValueError(f"windows must be a list of (start, length) pairs, got {windows!r}")
    for window in windows:
        start, length = _integers(window, "a (start, length) window", 2)
        if start < 0 or length < m or start + length > t:
            raise ValueError(f"bad window (start={start}, length={length})")


def windowed_covariances(w: SignalBlock, windows: Sequence[tuple]) -> list:
    """One covariance per (start, length) window; empty list for no windows."""
    _check_windows(windows, w.m, w.T)
    return [
        covariance(SignalBlock(w.data[:, start : start + length])) for start, length in windows
    ]


def _moment(axis_series, fixed_series, n):
    """Time averages of a block's product, keyed by how many axis series it has.

    The fixed series multiply left to right into a base.  With no axis
    series the moment is the scalar mean of the base (key 0).  Otherwise the
    left product, the first axis series times the base, gives the
    per-channel means (key 1), and with a second axis series also the
    matrix (first * base) @ second.T / n (key 2).  Key 1 is then the moment
    of the same block without its second axis slot, taken from the same
    left product.
    """
    base = None
    for s in fixed_series:
        base = s if base is None else base * s
    if not axis_series:
        return {0: complex(base.mean())}
    left = axis_series[0] if base is None else axis_series[0] * base
    out = {1: left.mean(axis=1)}
    if len(axis_series) == 2:
        out[2] = left @ axis_series[1].T / n
    return out


def _slice_from_series(xc, reads, p, q, n):
    """Partition-sum slice over axis slots (p, q) of the centred signal ``xc``.

    ``reads[r] = (channel, conjugated, offset)`` says what slot r reads:
    ``xc[channel, offset:offset + n]``, or every channel when ``channel`` is
    None (the two axis slots), conjugated when the bit is set.  A block's
    moment depends only on what its slots read, so blocks that read the same
    series in the same order share one moment.
    """
    # one series per slot, conjugated copies included: numpy computes
    # ``a @ a.T`` on one buffer by a symmetric product with other rounding,
    # so sharing a copy between the axis slots would change the bits
    series = []
    for channel, conj, off in reads:
        s = xc[:, off : off + n] if channel is None else xc[channel, off : off + n]
        series.append(np.conj(s) if conj else s)

    def slots(block):
        return [r for r in (p, q) if r in block], [r for r in block if r != p and r != q]

    def key(block):
        axis, fixed = slots(block)
        return tuple(reads[r] for r in axis), tuple(reads[r] for r in fixed)

    partitions = set_partitions(len(reads))
    blocks = {key(block): block for partition in partitions for block in partition}
    # Matrix moments first: the block without slot q is also in some
    # partition, and its vector moment comes from the matrix's left product.
    moments = {}
    for (axis_reads, fixed_reads), block in sorted(blocks.items(), key=lambda kb: -len(kb[0][0])):
        if (axis_reads, fixed_reads) not in moments:
            axis, fixed = slots(block)
            got = _moment([series[r] for r in axis], [series[r] for r in fixed], n)
            for count, val in got.items():
                moments[axis_reads[:count], fixed_reads] = val

    m = xc.shape[0]
    out = np.zeros((m, m), dtype=np.complex128)
    for partition in partitions:
        nblocks = len(partition)
        coef = complex((-1) ** (nblocks - 1) * math.factorial(nblocks - 1))
        scalars = coef
        vec_p = None
        vec_q = None
        mat = None
        for block in partition:
            val = moments[key(block)]
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


def slice_kind(pattern, axes) -> CongruenceKind:
    """Hermitian kind iff exactly one of the two axis slots is conjugated."""
    bits = _as_pattern(pattern).bits
    p, q = axes
    return CongruenceKind.HERMITIAN if bits[p] != bits[q] else CongruenceKind.TRANSPOSE


def _check_slice(pat: ConjugationPattern, offsets, axes, fixed_indices, m: int, t: int) -> tuple:
    """(p, q, offsets) of a slice on m channels of T samples, or ValueError."""
    k = len(pat)
    axes = _integers(axes, "slice axes")
    if len(axes) != 2:
        raise ValueError(f"need two slice axes, got {len(axes)}")
    p, q = axes
    if p == q:
        raise ValueError("slice axes must be distinct")
    if not (0 <= p < k and 0 <= q < k):
        raise ValueError(f"axes must be slot indices in 0..{k - 1}")
    fixed_indices = _integers(fixed_indices, "fixed channel indices")
    if len(fixed_indices) != k - 2:
        raise ValueError(f"need {k - 2} fixed channel indices, got {len(fixed_indices)}")
    if any(not 0 <= c < m for c in fixed_indices):
        raise ValueError("fixed channel index out of range")
    offs = _integers(offsets, "offsets")
    if len(offs) != k:
        raise ValueError(f"need one offset per slot, got {len(offs)}")
    if any(o < 0 for o in offs):
        raise ValueError("offsets must be nonnegative")
    if max(offs) >= t:
        raise ValueError("offsets leave no overlapping samples")
    return p, q, offs


def cumulant_slice(w: SignalBlock, pattern, fixed_indices, axes) -> CumulantSlice:
    """Cumulant-tensor slice varying the two axis slots over all channels.

    Entry (a, b) is the order-k cumulant with channel a in slot ``axes[0]``,
    channel b in slot ``axes[1]``, and the remaining slots pinned to
    ``fixed_indices`` (in slot order).  All indices 0-based.  This is the
    lagged slice with every offset zero.
    """
    pat = _as_pattern(pattern)
    return lagged_cumulant_slice(w, pat, (0,) * len(pat), axes, fixed_indices)


def lagged_cumulant_slice(
    w: SignalBlock, pattern, offsets, axes, fixed_indices=()
) -> CumulantSlice:
    """Cumulant slice with one time offset per slot (lagged statistics).

    Slot r reads its channel at t + offsets[r]; averages run over the
    largest common window.  Uniform offsets on the two axis slots reproduce
    the lagged (pseudo-)correlation matrices at order two, up to the O(1/T)
    window-mean correction the cumulant subtracts.
    """
    pat = _as_pattern(pattern)
    p, q, offs = _check_slice(pat, offsets, axes, fixed_indices, w.m, w.T)
    n = w.T - max(offs)
    it = iter(fixed_indices)
    reads = [
        (None if r in (p, q) else next(it), bit, off)
        for r, (bit, off) in enumerate(zip(pat.bits, offs))
    ]
    raw = _slice_from_series(w.centered(), reads, p, q, n)
    return CumulantSlice(raw, *_carriers(raw.conj() if pat.bits[p] else raw, slice_kind(pat, axes)))
