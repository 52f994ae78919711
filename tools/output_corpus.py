"""Write a corpus of ``nujd`` CLI outputs for byte-identity checks.

Usage:

    PYTHONPATH=src python tools/output_corpus.py OUTDIR

The script writes small seeded inputs under ``OUTDIR/inputs`` and runs
``python -m nujd.cli`` on them: ``estimate`` (covariance/pseudo-covariance, a
lag, two windows, a fourth-order slice), ``solve`` (put, sut, gevd, gevd on a
defective pencil, put on two Hermitian matrices, an invalid ``--tol``),
``check`` (a Unique and a NotUnique spectra file, a diagonal matrix set, a
non-diagonal one, an invalid ``--tol``) and
``simulate`` (configs that cover the six source kinds, every statistic, noise
and the three solvers).  Seeded cases at m > 3 come last: ``solve`` with put
and sut on population pairs at m = 8 and m = 32, and ``check`` on a NotUnique
spectra file at m = 8 whose pair is the last one and on a three-row Hermitian
family at m = 16.  After them come ``estimate`` of a Hermitian-kind
fourth-order slice and ``simulate`` on three malformed configs: a lag equal
to ``T``, a statistic name that is a list and a negative lag.  Last come
four malformed ``estimate`` flag lists (a fixed channel past m, a window
shorter than m, a lag equal to ``T``, and ``--cov`` with a pattern holding
a letter) and ``simulate`` on three configs that no trial can run: pattern
bits ``[0.5, 1, 0, 0.9]``, ``T`` of 50 and a ``cond_cap`` of 0.5.  After
them, ``simulate`` runs AR(1) sources at circularity 1 with poles 0.999999
and -0.99, and rejects two sources with a ``cond_cap`` of 1.  Last,
``simulate`` rejects five configs at ``T`` = 200: a ``margin`` and a
``cond_cap`` of 10**400, a source ``power`` of 10**400 and of 1e300, and a
variance profile of ``[1e308, 1]``.  After them, ``simulate`` runs PUT on a
second-order slice pair whose Hermitian slice conjugates its first axis
slot (patterns ``10`` and ``00``) at ``T`` = 2000, and rejects a config
with the misspelt top-level field ``"trails"``.  Last come two commands
that print one ``warning:`` line each, ``estimate --cov`` on a two-channel
signal of ``T`` = 1 and ``solve`` on a zero Hermitian matrix with a regular
transpose one, and ``check`` with an ``--out`` in a missing directory.
After them, ``solve --method put`` runs on two seeded pairs at m = 3 whose
transpose matrix has Takagi values (1, 1, 0.5), one value repeated, and
(1, 1 - 2e-7, 0.5), two values at a relative gap of 2e-7.  Last,
``estimate --cov --pseudocov`` reads a signal of ``T`` = 10,000, whose pair
lists the writer encodes in more than two slices.  After it, two matrix sets
scaled by 1e200, past the range of an unscaled Frobenius norm: ``check`` on
a non-diagonal set and ``solve --method put`` on a set whose transpose matrix
[[1, 1], [1.001, 1]] is not symmetric.  Last, two inputs whose pair lists
hold ints, which the reader keeps as lists: ``estimate --cov --pseudocov``
on a seeded signal with the real part of every third sample an int, and
``check`` on a spectra file of integer pairs.  After them, three signals
of ``T`` = 40,000, each several times the reader's window of text
(``io._WINDOW``): ``estimate --cov --pseudocov`` on compact ``json.dumps``
text and on a signal whose last two samples of each channel have int real
parts, and ``estimate --cov`` on a signal with an invalid UTF-8 byte past
the first window.  Last, three inputs that hold ``-0.0`` parts, which the
readers keep bit for bit: ``estimate --cov --pseudocov`` on a seeded
signal, ``solve --method put`` on a matrix set and ``check`` on a spectra
file.
Each command runs in ``OUTDIR``, so that a relative ``--out`` names the same
path under every ``OUTDIR``.  Each command's stdout and stderr go to
``OUTDIR/<case>.out`` and ``OUTDIR/<case>.err`` and its exit code to
``OUTDIR/exit_codes.json``.

The ``nujd`` package that the script imports is the one every command runs,
so two checkouts compare with

    PYTHONPATH=A/src python tools/output_corpus.py /tmp/a
    PYTHONPATH=B/src python tools/output_corpus.py /tmp/b
    diff -r /tmp/a /tmp/b

It uses only the standard library, numpy and ``nujd``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import nujd
from nujd import io as nio
from nujd.core import CongruenceKind, DiagonalStack, TaggedMatrix
from nujd.simulation import SourceSpec, generate, mix
from nujd.statistics import SignalBlock

T_SIGNAL = 4000
# more than two of the writer's pair-list slices
T_LONG_SIGNAL = 10_000
# several of the reader's windows of text
T_WINDOW_SIGNAL = 40_000
BAD_BYTE_AT = 3 << 19

SIGNALS = {
    "noncircular": [SourceSpec("noncircular_gaussian", circularity=0.9),
                    SourceSpec("noncircular_gaussian", circularity=0.3)],
    "ar1": [SourceSpec("ar1_noncircular", circularity=0.9, coefficient=0.9),
            SourceSpec("ar1_noncircular", circularity=0.3, coefficient=0.2)],
    "blocks": [SourceSpec("block_nonstationary", variance_profile=(1.0, 4.0)),
               SourceSpec("block_nonstationary", variance_profile=(4.0, 1.0))],
    "digital": [SourceSpec("bpsk"), SourceSpec("qpsk"), SourceSpec("circular_gaussian")],
}

SPECTRA = {
    # (transpose rows, Hermitian rows)
    "unique": ([[1, 0.2], [0.3, 1]], [[1, 2]]),
    "not_unique": ([[0.5, 0.5]], [[1, 1]]),
}

MATRIX_SETS = {
    "diagonal_set": [
        TaggedMatrix([[1.0, 0.0], [0.0, 2.0]], CongruenceKind.HERMITIAN),
        TaggedMatrix([[1.0 + 1.0j, 0.0], [0.0, 2.0]], CongruenceKind.TRANSPOSE),
    ],
    # C1 C2^{-1} is nilpotent: gevd ends in a DefectiveMatrix failure
    "defective_pencil": [
        TaggedMatrix([[1.0, 1.0], [1.0, 1.0]], CongruenceKind.HERMITIAN),
        TaggedMatrix([[1.0, 0.0], [0.0, -1.0]], CongruenceKind.HERMITIAN),
    ],
    "two_hermitian_set": [
        TaggedMatrix([[1.0, 0.0], [0.0, 2.0]], CongruenceKind.HERMITIAN),
        TaggedMatrix([[2.0, 0.0], [0.0, 1.0]], CongruenceKind.HERMITIAN),
    ],
    "non_diagonal_set": [
        TaggedMatrix([[1.0, 0.3], [0.3, 2.0]], CongruenceKind.HERMITIAN),
        TaggedMatrix([[1.0, 0.0], [0.0, 1.0]], CongruenceKind.TRANSPOSE),
    ],
    # PUT's whitened eigenvalues coincide: a DegenerateSpectrumWarning
    "zero_hermitian_set": [
        TaggedMatrix([[0.0, 0.0], [0.0, 0.0]], CongruenceKind.HERMITIAN),
        TaggedMatrix([[1.0 + 1.0j, 0.0], [0.0, 3.0]], CongruenceKind.TRANSPOSE),
    ],
}

# a covariance of one sample on two channels: a RankDeficiencyWarning
SIGNAL_T1 = {"m": 2, "T": 1, "channels": [[[1.0, 0.0]], [[0.0, 2.0]]]}

# seeded cases at m > 3, after every case above so that their outputs keep their bytes
POPULATION_PAIRS = {"population_m8": (8, 301), "population_m32": (32, 302)}

_NONCIRCULAR = [{"kind": "noncircular_gaussian", "circularity": 0.9},
                {"kind": "noncircular_gaussian", "circularity": 0.3}]
_COV_PAIR = [{"statistic": "covariance"}, {"statistic": "pseudo_covariance"}]

CONFIGS = {
    "sut_noise": {"sources": _NONCIRCULAR, "statistics": _COV_PAIR, "solver": "sut",
                  "noise_snr_db": 20.0},
    "put_equal_circularity": {
        "sources": [{"kind": "noncircular_gaussian", "circularity": 0.5}] * 2,
        "statistics": _COV_PAIR, "solver": "put"},
    "put_lag1_ar1": {
        "sources": [{"kind": "ar1_noncircular", "circularity": 0.9, "coefficient": 0.9},
                    {"kind": "ar1_noncircular", "circularity": 0.3, "coefficient": 0.2}],
        "statistics": [{"statistic": "autocorrelation", "lag": 1},
                       {"statistic": "pseudo_autocorrelation", "lag": 1}],
        "solver": "put"},
    "gevd_windows": {
        "sources": [{"kind": "block_nonstationary", "variance_profile": [1.0, 4.0]},
                    {"kind": "block_nonstationary", "variance_profile": [4.0, 1.0], "power": 2.0}],
        "statistics": [{"statistic": "windowed_covariance", "windows": [[0, 2000], [2000, 2000]]}],
        "solver": "gevd"},
    "gevd_skew_autocorrelation": {
        "sources": [{"kind": "ar1_noncircular", "circularity": 0.5, "coefficient": 0.8},
                    {"kind": "circular_gaussian"}],
        "statistics": [{"statistic": "covariance"},
                       {"statistic": "autocorrelation", "lag": 2, "part": "skew"}],
        "solver": "gevd"},
    "put_cum4": {
        "sources": [{"kind": "bpsk"}, {"kind": "qpsk"}],
        "statistics": [{"statistic": "covariance"},
                       {"statistic": "cumulant_slice", "pattern": "0000", "axes": [1, 2], "fixed": [1, 1]}],
        "solver": "put"},
    "put_skew_slice": {
        "sources": [{"kind": "bpsk"}, {"kind": "qpsk"}, {"kind": "circular_gaussian"}],
        "statistics": [{"statistic": "pseudo_covariance"},
                       {"statistic": "cumulant_slice", "pattern": "0101", "axes": [1, 2],
                        "fixed": [1, 3], "part": "skew"}],
        "solver": "put"},
    "put_lagged_slice": {
        "sources": [{"kind": "block_nonstationary", "variance_profile": [1.0, 2.0]}, {"kind": "bpsk"}],
        "statistics": [{"statistic": "covariance"},
                       {"statistic": "lagged_cumulant_slice", "pattern": "0000",
                        "offsets": [0, 1, 0, 0], "axes": [1, 2], "fixed": [1, 1]}],
        "solver": "put"},
}

# cases after every one above, so that earlier outputs keep their bytes
LATE_CONFIGS = {
    "lag_at_T": {
        "sources": _NONCIRCULAR,
        "statistics": [{"statistic": "autocorrelation", "lag": 5000},
                       {"statistic": "pseudo_autocorrelation", "lag": 1}],
        "solver": "put"},
    # malformed entries: an unhashable statistic name and a negative lag
    "statistic_list": {
        "sources": _NONCIRCULAR,
        "statistics": [{"statistic": []}],
        "solver": "put"},
    "negative_lag": {
        "sources": _NONCIRCULAR,
        "statistics": [{"statistic": "autocorrelation", "lag": -1},
                       {"statistic": "pseudo_autocorrelation", "lag": 1}],
        "solver": "put"},
}


# configs that the decoder rejects, after every case above
FAULT_CONFIGS = {
    "float_pattern_bits": {
        "sources": [{"kind": "bpsk"}, {"kind": "qpsk"}],
        "statistics": [{"statistic": "pseudo_covariance"},
                       {"statistic": "cumulant_slice", "pattern": [0.5, 1, 0, 0.9],
                        "axes": [1, 2], "fixed": [1, 1]}],
        "solver": "put"},
    "short_T": {"sources": _NONCIRCULAR, "statistics": _COV_PAIR, "solver": "sut", "T": 50},
    "cond_cap_below_1": {"sources": _NONCIRCULAR, "statistics": _COV_PAIR, "solver": "sut",
                         "cond_cap": 0.5},
}

# after every case above
LAST_CONFIGS = {
    "sut_ar1_extreme_poles": {
        "sources": [{"kind": "ar1_noncircular", "circularity": 1.0, "coefficient": 0.999999},
                    {"kind": "ar1_noncircular", "circularity": 1.0, "coefficient": -0.99}],
        "statistics": _COV_PAIR, "solver": "sut"},
    "cond_cap_1": {"sources": _NONCIRCULAR, "statistics": _COV_PAIR, "solver": "sut",
                   "cond_cap": 1},
}


# after every case above: values past the float range or the power cap,
# at T = 200; each used to end in a traceback or in failed trials
_CUM4_RECIPE = [{"statistic": "covariance"},
                {"statistic": "cumulant_slice", "pattern": "0000", "axes": [1, 2], "fixed": [1, 1]}]
_DIGITAL = [{"kind": "bpsk"}, {"kind": "qpsk"}]
RANGE_CONFIGS = {
    "margin_401_digits": {"sources": _DIGITAL, "statistics": _CUM4_RECIPE, "T": 200,
                          "margin": 10**400},
    "cond_cap_401_digits": {"sources": _DIGITAL, "statistics": _CUM4_RECIPE, "T": 200,
                            "cond_cap": 10**400},
    "power_401_digits": {"sources": [{"kind": "bpsk", "power": 10**400}, {"kind": "qpsk"}],
                         "statistics": _CUM4_RECIPE, "T": 200},
    "power_1e300": {"sources": [{"kind": "bpsk", "power": 1e300}, {"kind": "qpsk"}],
                    "statistics": _CUM4_RECIPE, "T": 200},
    "variance_profile_1e308": {
        "sources": [{"kind": "block_nonstationary", "variance_profile": [1e308, 1]}, {"kind": "qpsk"}],
        "statistics": _COV_PAIR, "T": 200},
}

# after every case above
SLICE_CONFIGS = {
    "put_conjugated_first_axis": {
        "sources": _NONCIRCULAR, "T": 2000, "solver": "put",
        "statistics": [{"statistic": "cumulant_slice", "pattern": "10", "axes": [1, 2]},
                       {"statistic": "cumulant_slice", "pattern": "00", "axes": [1, 2]}]},
    "misspelt_trials": {"sources": _NONCIRCULAR, "statistics": _COV_PAIR, "trails": 5},
}


def _signal(specs, seed, t=T_SIGNAL):
    sources, truth = generate(specs, t, seed)
    return nio.signal_to_dict(mix(sources, truth.a))


def _spectra(transpose, hermitian):
    return nio.stacks_to_dict(
        DiagonalStack(CongruenceKind.TRANSPOSE, transpose),
        DiagonalStack(CongruenceKind.HERMITIAN, hermitian),
    )


def _ratio_rows(rng, m, pair=None):
    """(t, h) with h > 0 and the ratios |t_k| / h_k about 10% apart, or equal at ``pair``."""
    h = rng.uniform(0.5, 2.0, m)
    r = np.exp(rng.permutation(0.1 * np.arange(m)))
    if pair is not None:
        r[pair[1]] = r[pair[0]]
    return r * h * np.exp(2j * np.pi * rng.uniform(size=m)), h


def _unitary(rng, m):
    q, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return q


def _population_pair(m, seed):
    """C1 = A diag(h) A^H (positive definite) and C2 = A diag(t) A^T, with cond(A) = 10."""
    rng = np.random.default_rng(seed)
    t, h = _ratio_rows(rng, m)
    a = (_unitary(rng, m) * np.geomspace(1.0, 10.0, m)) @ _unitary(rng, m)
    c1 = a @ np.diag(h) @ a.conj().T
    c2 = a @ np.diag(t) @ a.T
    return [
        TaggedMatrix((c1 + c1.conj().T) / 2.0, CongruenceKind.HERMITIAN),
        TaggedMatrix((c2 + c2.T) / 2.0, CongruenceKind.TRANSPOSE),
    ]


# after every case above: C2 = Q diag(sigma) Q^T with near-equal or equal Takagi values
TAKAGI_PAIRS = {"repeated_takagi": ([1.0, 1.0, 0.5], 305),
                "takagi_gap_2e-7": ([1.0, 1.0 - 2e-7, 0.5], 306)}


def _takagi_pair(sigma, seed):
    """C1 = B B^H and C2 = Q diag(sigma) Q^T with Q unitary, at m = len(sigma)."""
    rng = np.random.default_rng(seed)
    m = len(sigma)
    b = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q = _unitary(rng, m)
    c1 = b @ b.conj().T
    c2 = q @ np.diag(sigma) @ q.T
    return [
        TaggedMatrix((c1 + c1.conj().T) / 2.0, CongruenceKind.HERMITIAN),
        TaggedMatrix((c2 + c2.T) / 2.0, CongruenceKind.TRANSPOSE),
    ]


def _not_unique_m8_last_pair(rng):
    """NotUnique at m = 8: the ratios match only at the last pair, (7, 8) 1-based."""
    t, h = _ratio_rows(rng, 8, pair=(6, 7))
    return _spectra([t], [h])


def _hermitian_rows_m16(rng):
    """One transpose row and a three-row Hermitian family at m = 16."""
    m = 16
    return _spectra(rng.standard_normal((1, m)) + 1j * rng.standard_normal((1, m)),
                    rng.standard_normal((3, m)))


# name: (builder of a generator, seed)
LARGE_SPECTRA = {
    "not_unique_m8_last_pair": (_not_unique_m8_last_pair, 303),
    "hermitian_rows_m16": (_hermitian_rows_m16, 304),
}


# after every case above: (kind, matrix) lists, times 1e200 in the file
SCALED_SETS = {
    "non_diagonal_set_1e200": [("hermitian", [[1.0, 0.3], [0.3, 2.0]]),
                               ("transpose", [[1.0, 0.0], [0.0, 1.0]])],
    "non_symmetric_transpose_1e200": [("hermitian", [[2.0, 0.0], [0.0, 1.0]]),
                                      ("transpose", [[1.0, 1.0], [1.001, 1.0]])],
}


def _scaled_set(items):
    """A matrix-set document written entry by entry: TaggedMatrix rejects a
    non-symmetric matrix before it could be written."""
    return {"m": 2, "matrices": [{"kind": kind, "entries": nio._pairs(np.array(mat) * 1e200)}
                                 for kind, mat in items]}


def _mixed_signal(seed, t=400):
    """A seeded signal whose pair lists mix ints and floats: the real part of
    every third sample is rounded to an int."""
    doc = _signal(SIGNALS["noncircular"], seed, t)
    doc["channels"] = [
        [[int(round(re)), im] if k % 3 == 0 else [re, im] for k, (re, im) in enumerate(np.asarray(ch).tolist())]
        for ch in doc["channels"]
    ]
    return doc


def _write_window_signals(inputs: Path) -> None:
    """Compact text, ints in each channel's last two samples, and an
    invalid byte at ``BAD_BYTE_AT``, each of a seeded ``T_WINDOW_SIGNAL``
    signal."""
    doc = _signal(SIGNALS["noncircular"], 1000, T_WINDOW_SIGNAL)
    lists = dict(doc, channels=[ch.tolist() for ch in doc["channels"]])
    (inputs / "signal_compact.json").write_text(json.dumps(lists), encoding="utf-8")
    for ch in lists["channels"]:
        for pair in ch[-2:]:
            pair[0] = int(round(pair[0]))
    nio.write_json(lists, inputs / "signal_int_tail.json")
    raw = nio.write_json(doc).encode()
    (inputs / "signal_bad_byte.json").write_bytes(raw[:BAD_BYTE_AT] + b"\xff" + raw[BAD_BYTE_AT + 1:])


def _signed_zero_signal(seed, t=400):
    """A seeded signal with -0.0 real parts in every fifth sample of the
    first channel and -0.0 imaginary parts in every seventh of the second."""
    sources, truth = generate(SIGNALS["noncircular"], t, seed)
    data = mix(sources, truth.a).data.copy()
    data.real[0, ::5] = -0.0
    data.imag[1, ::7] = -0.0
    return nio.signal_to_dict(SignalBlock(data))


_NEG_ZERO = complex(-0.0, -0.0)
# -0.0 off the diagonals and in imaginary parts
SIGNED_ZERO_SET = [
    TaggedMatrix([[2.0, _NEG_ZERO], [_NEG_ZERO.conjugate(), complex(1.0, -0.0)]], CongruenceKind.HERMITIAN),
    TaggedMatrix([[1.0 + 1.0j, _NEG_ZERO], [_NEG_ZERO, complex(3.0, -0.0)]], CongruenceKind.TRANSPOSE),
]
# (transpose rows, Hermitian rows) with -0.0 parts
SIGNED_ZERO_SPECTRA = ([[complex(1.0, -0.0), complex(-0.0, 0.3)], [complex(0.2, 0.0), complex(1.0, -0.0)]],
                       [[1.0, 2.0], [-0.0, 1.0]])

INT_SPECTRA = {"m": 3, "spectra": [{"kind": "transpose", "diag": [[1, 0], [2, 1], [-3, 2]]},
                                   {"kind": "hermitian", "diag": [[1, 0], [4, 0], [9, 0]]}]}


def _config(doc, seed):
    return dict({"T": 5000, "seed": seed, "trials": 3}, **doc)


def write_inputs(inputs: Path) -> None:
    inputs.mkdir(parents=True, exist_ok=True)
    for i, (name, specs) in enumerate(SIGNALS.items()):
        nio.write_json(_signal(specs, 100 + i), inputs / f"signal_{name}.json")
    for name, (t, h) in SPECTRA.items():
        nio.write_json(_spectra(t, h), inputs / f"spectra_{name}.json")
    for name, items in MATRIX_SETS.items():
        nio.write_json(nio.matrix_set_to_dict(items), inputs / f"{name}.json")
    for i, (name, doc) in enumerate(CONFIGS.items()):
        nio.write_json(_config(doc, 200 + i), inputs / f"config_{name}.json")
    for name, (m, seed) in POPULATION_PAIRS.items():
        nio.write_json(nio.matrix_set_to_dict(_population_pair(m, seed)), inputs / f"{name}.json")
    for name, (build, seed) in LARGE_SPECTRA.items():
        nio.write_json(build(np.random.default_rng(seed)), inputs / f"spectra_{name}.json")
    for i, (name, doc) in enumerate(LATE_CONFIGS.items()):
        nio.write_json(_config(doc, 300 + i), inputs / f"config_{name}.json")
    for i, (name, doc) in enumerate(FAULT_CONFIGS.items()):
        nio.write_json(_config(doc, 400 + i), inputs / f"config_{name}.json")
    for i, (name, doc) in enumerate(LAST_CONFIGS.items()):
        nio.write_json(_config(doc, 500 + i), inputs / f"config_{name}.json")
    for i, (name, doc) in enumerate(RANGE_CONFIGS.items()):
        nio.write_json(_config(doc, 600 + i), inputs / f"config_{name}.json")
    for i, (name, doc) in enumerate(SLICE_CONFIGS.items()):
        nio.write_json(_config(doc, 700 + i), inputs / f"config_{name}.json")
    nio.write_json(SIGNAL_T1, inputs / "signal_T1.json")
    for name, (sigma, seed) in TAKAGI_PAIRS.items():
        nio.write_json(nio.matrix_set_to_dict(_takagi_pair(sigma, seed)), inputs / f"{name}.json")
    nio.write_json(_signal(SIGNALS["noncircular"], 800, T_LONG_SIGNAL), inputs / "signal_long.json")
    for name, items in SCALED_SETS.items():
        nio.write_json(_scaled_set(items), inputs / f"{name}.json")
    nio.write_json(_mixed_signal(900), inputs / "signal_mixed.json")
    nio.write_json(INT_SPECTRA, inputs / "spectra_int.json")
    _write_window_signals(inputs)
    nio.write_json(_signed_zero_signal(1100), inputs / "signal_signed_zeros.json")
    nio.write_json(nio.matrix_set_to_dict(SIGNED_ZERO_SET), inputs / "signed_zero_set.json")
    nio.write_json(_spectra(*SIGNED_ZERO_SPECTRA), inputs / "spectra_signed_zeros.json")


def cases(inputs: Path, out: Path):
    """(case name, CLI arguments) in run order; solve reads estimate's output."""
    def sig(name):
        return str(inputs / f"signal_{name}.json")

    yield "estimate_cov_pseudocov", ["estimate", sig("noncircular"), "--cov", "--pseudocov"]
    yield "estimate_lag", ["estimate", sig("ar1"), "--lag", "1"]
    yield "estimate_windows", ["estimate", sig("blocks"), "--window", "0:2000", "--window", "2000:2000"]
    yield "estimate_cum4", ["estimate", sig("digital"), "--cum4", "0000", "3,4", "1,1"]
    yield "solve_put", ["solve", str(out / "estimate_cov_pseudocov.out"), "--method", "put"]
    yield "solve_sut", ["solve", str(out / "estimate_cov_pseudocov.out"), "--method", "sut", "--tol", "1e-2"]
    yield "solve_put_lag", ["solve", str(out / "estimate_lag.out"), "--method", "put"]
    yield "solve_gevd", ["solve", str(out / "estimate_windows.out"), "--method", "gevd"]
    yield "solve_gevd_defective", ["solve", str(inputs / "defective_pencil.json"), "--method", "gevd"]
    yield "solve_put_two_hermitian", ["solve", str(inputs / "two_hermitian_set.json"), "--method", "put"]
    yield "solve_tol_nan", ["solve", str(inputs / "diagonal_set.json"), "--tol", "nan"]
    for name in SPECTRA:
        yield f"check_{name}", ["check", str(inputs / f"spectra_{name}.json")]
    yield "check_not_unique_margin", ["check", str(inputs / "spectra_not_unique.json"), "--margin", "1e-3"]
    yield "check_diagonal_set", ["check", str(inputs / "diagonal_set.json")]
    yield "check_non_diagonal_set_margin", ["check", str(inputs / "non_diagonal_set.json"), "--margin", "0.5"]
    yield "check_tol_nan", ["check", str(inputs / "spectra_unique.json"), "--tol", "nan"]
    for name in CONFIGS:
        yield f"simulate_{name}", ["simulate", str(inputs / f"config_{name}.json")]
    for name in POPULATION_PAIRS:
        for method in ("put", "sut"):
            yield f"solve_{method}_{name}", ["solve", str(inputs / f"{name}.json"), "--method", method]
    for name in LARGE_SPECTRA:
        yield f"check_{name}", ["check", str(inputs / f"spectra_{name}.json")]
    yield "estimate_cum4_hermitian", ["estimate", sig("digital"), "--cum4", "0101", "1,2", "1,3"]
    for name in LATE_CONFIGS:
        yield f"simulate_{name}", ["simulate", str(inputs / f"config_{name}.json")]
    yield "estimate_fixed_past_m", ["estimate", sig("noncircular"), "--cum4", "0101", "1,2", "1,3"]
    yield "estimate_window_below_m", ["estimate", sig("noncircular"), "--window", "0:1"]
    yield "estimate_lag_at_T", ["estimate", sig("ar1"), "--lag", str(T_SIGNAL)]
    yield "estimate_cov_bad_pattern", ["estimate", sig("digital"), "--cov", "--cum4", "0a00", "1,2", "1,1"]
    for name in (*FAULT_CONFIGS, *LAST_CONFIGS, *RANGE_CONFIGS, *SLICE_CONFIGS):
        yield f"simulate_{name}", ["simulate", str(inputs / f"config_{name}.json")]
    yield "estimate_cov_T1", ["estimate", str(inputs / "signal_T1.json"), "--cov"]
    yield "solve_put_zero_hermitian", ["solve", str(inputs / "zero_hermitian_set.json")]
    yield "check_out_missing_dir", ["check", str(inputs / "spectra_unique.json"), "--out", "missing/x.json"]
    for name in TAKAGI_PAIRS:
        yield f"solve_put_{name}", ["solve", str(inputs / f"{name}.json"), "--method", "put"]
    yield "estimate_cov_pseudocov_long", ["estimate", sig("long"), "--cov", "--pseudocov"]
    yield "check_non_diagonal_set_1e200", ["check", str(inputs / "non_diagonal_set_1e200.json")]
    yield "solve_put_non_symmetric_transpose_1e200", [
        "solve", str(inputs / "non_symmetric_transpose_1e200.json"), "--method", "put"]
    yield "estimate_cov_pseudocov_mixed", ["estimate", sig("mixed"), "--cov", "--pseudocov"]
    yield "check_int_spectra", ["check", str(inputs / "spectra_int.json")]
    yield "estimate_cov_pseudocov_compact", ["estimate", sig("compact"), "--cov", "--pseudocov"]
    yield "estimate_cov_pseudocov_int_tail", ["estimate", sig("int_tail"), "--cov", "--pseudocov"]
    # relative to OUTDIR, where the command runs: the error names the path
    yield "estimate_cov_bad_byte", ["estimate", str(Path(sig("bad_byte")).relative_to(out)), "--cov"]
    yield "estimate_cov_pseudocov_signed_zeros", ["estimate", sig("signed_zeros"), "--cov", "--pseudocov"]
    yield "solve_put_signed_zero_set", ["solve", str(inputs / "signed_zero_set.json"), "--method", "put"]
    yield "check_signed_zero_spectra", ["check", str(inputs / "spectra_signed_zeros.json")]


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[1]).resolve()
    write_inputs(out / "inputs")
    # every command runs the nujd package this script imported
    env = dict(os.environ, PYTHONPATH=str(Path(nujd.__file__).resolve().parents[1]))
    codes = {}
    for name, args in cases(out / "inputs", out):
        proc = subprocess.run(
            [sys.executable, "-m", "nujd.cli", *args], env=env, capture_output=True, cwd=out
        )
        (out / f"{name}.out").write_bytes(proc.stdout)
        (out / f"{name}.err").write_bytes(proc.stderr)
        codes[name] = proc.returncode
    (out / "exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")
    print(f"{len(codes)} commands, outputs in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
