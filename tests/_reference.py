"""Scalar reference estimators that the tests compare the package against.

``cumulant`` is the one-entry partition sum that the slice tests check
``cumulant_slice`` and ``lagged_cumulant_slice`` with; ``circularity_coefficient``
is the paper's estimator of a channel's circularity, which acceptance
criterion 6 and the generator tests check the noncircular sources with.
"""

import math
from collections.abc import Sequence

import numpy as np

from nujd.errors import DimensionMismatch
from nujd.statistics import _as_pattern, set_partitions


def circularity_coefficient(channel) -> float:
    """|E[s^2]| / E[|s|^2] of one channel, estimated by time averages."""
    x = np.asarray(channel, dtype=np.complex128).ravel()
    x = x - x.mean()
    power = float(np.mean(np.abs(x) ** 2))
    if power <= 0.0:
        raise ValueError("channel has zero power after centering")
    return float(np.abs(np.mean(x * x)) / power)


def cumulant(channels: Sequence, pattern) -> complex:
    """Joint cumulant of k channels with per-slot conjugation.

    Channels are centered, conjugated per the pattern, and combined through
    the exact partition sum; sample moments use 1/T normalization.
    """
    pat = _as_pattern(pattern)
    k = len(pat)
    if len(channels) != k:
        raise DimensionMismatch("need one channel per pattern slot")
    series = []
    length = None
    for x, bit in zip(channels, pat.bits):
        a = np.asarray(x, dtype=np.complex128).ravel()
        if length is None:
            length = a.size
        elif a.size != length:
            raise DimensionMismatch("channels must have equal length")
        a = a - a.mean()
        series.append(np.conj(a) if bit else a)
    moments = {}

    def block_moment(block):
        if block not in moments:
            prod = series[block[0]].copy()
            for idx in block[1:]:
                prod *= series[idx]
            moments[block] = complex(prod.mean())
        return moments[block]

    total = 0.0 + 0.0j
    for partition in set_partitions(k):
        p = len(partition)
        coef = (-1) ** (p - 1) * math.factorial(p - 1)
        term = complex(coef)
        for block in partition:
            term *= block_moment(block)
        total += term
    return complex(total)
