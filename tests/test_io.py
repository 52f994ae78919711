import dataclasses
import gc
import json
import re
import struct
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import put_pair, tagged_put_pair

from nujd import io as nio
from nujd.core import CongruenceKind, DiagonalStack, GLElement, TaggedMatrix
from nujd.errors import ConfigError, NujdError
from nujd.simulation import ExperimentConfig, SourceSpec, generate, run_experiment
from nujd.solvers import solve_pair
from nujd.statistics import SignalBlock
from nujd.uniqueness import identifiability_master


def test_matrix_set_roundtrip_byte_identical(tmp_path, rng):
    c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    items = [
        TaggedMatrix((c + c.T) / 2, CongruenceKind.TRANSPOSE),
        TaggedMatrix((c + c.conj().T) / 2, CongruenceKind.HERMITIAN),
    ]
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    nio.write_json(nio.matrix_set_to_dict(items), p1)
    loaded = nio.matrix_set_from_dict(nio.read_json(p1))
    assert all(np.array_equal(x.matrix, y.matrix) for x, y in zip(items, loaded))
    nio.write_json(nio.matrix_set_to_dict(loaded), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_spectra_roundtrip(tmp_path):
    sym = DiagonalStack(CongruenceKind.TRANSPOSE, np.array([[1 + 2j, 0.25]]))
    herm = DiagonalStack(CongruenceKind.HERMITIAN, np.array([[0.5, -3.0], [1.0, 1.0]]))
    doc = nio.stacks_to_dict(sym, herm)
    s2, h2, m = nio.stacks_from_dict(doc)
    assert m == 2
    assert np.array_equal(s2.spectra, sym.spectra)
    assert np.array_equal(h2.spectra, herm.spectra)


def test_signal_roundtrip(tmp_path, rng):
    block = SignalBlock(rng.standard_normal((2, 50)) + 1j * rng.standard_normal((2, 50)))
    doc = nio.signal_to_dict(block)
    again = nio.signal_from_dict(doc)
    assert np.array_equal(block.data, again.data)


def test_uniqueness_report_serialization():
    rep = identifiability_master(DiagonalStack(CongruenceKind.TRANSPOSE, np.array([[1 + 1j, 2 + 2j]])), None)
    doc = nio.uniqueness_report_to_dict(rep)
    assert doc["verdict"] == "NotUnique"
    assert doc["pair"] == [1, 2]  # 1-based at the file surface
    pairs = np.array(doc["witness"]["entries"])
    m = doc["witness"]["m"]
    w = GLElement((pairs[:, 0] + 1j * pairs[:, 1]).reshape(m, m))
    assert w.m == 2
    text = nio.write_json(doc)
    assert "NaN" not in text


def test_unique_report_has_no_pair():
    rep = identifiability_master(
        DiagonalStack(CongruenceKind.TRANSPOSE, np.array([[1.0, 0], [0, 1.0]])), None
    )
    doc = nio.uniqueness_report_to_dict(rep)
    assert doc["verdict"] == "Unique" and doc["pair"] is None and doc["witness"] is None


def test_config_parsing_and_one_based_conversion():
    doc = {
        "sources": [{"kind": "bpsk"}, {"kind": "qpsk"}],
        "T": 1000,
        "seed": 4,
        "statistics": [
            {"statistic": "cumulant_slice", "pattern": "0000", "axes": [3, 4], "fixed": [1, 1]}
        ],
        "solver": "put",
    }
    cfg = nio.config_from_dict(doc)
    assert cfg.statistics[0]["axes"] == (2, 3)
    assert cfg.statistics[0]["fixed"] == (0, 0)


def test_config_missing_fields():
    with pytest.raises(ConfigError):
        nio.config_from_dict({"sources": [], "T": 100})
    with pytest.raises(ConfigError):
        nio.config_from_dict(
            {"sources": [{"kind": "nope"}], "T": 100, "seed": 1, "statistics": []}
        )


_CONFIG = {
    "sources": [{"kind": "bpsk"}, {"kind": "qpsk"}],
    "T": 1000,
    "seed": 4,
    "statistics": [{"statistic": "covariance"}],
}
_CUM4 = {"statistic": "cumulant_slice", "pattern": "0000", "axes": [1, 2], "fixed": [1, 1]}


def _with(**kw):
    return dict(_CONFIG, **kw)


@pytest.mark.parametrize(
    "doc, message",
    [
        (_with(trials="2"), "trials must be a positive integer, got '2'"),
        (_with(T=1e5), "T must be a positive integer, got 100000.0"),
        (_with(seed=-1), "seed must be a non-negative integer, got -1"),
        # misspelt top-level fields used to be dropped, running one trial of put
        (_with(trails=5, solvr="gevd"), "document has unknown fields ['solvr', 'trails']"),
        (_with(margin="0.01"), "margin must be a number, got '0.01'"),
        (_with(sources=[5]), "sources[0] must be an object"),
        (_with(sources=[{"power": 1}]), "sources[0].kind is missing"),
        (_with(sources=[{"kind": "bpsk", "power": "2"}]), "sources[0]: power must be a number, got '2'"),
        (_with(sources=[{"kind": "bpsk", "power": -1}]), "sources[0]: power must be positive"),
        (_with(sources=[{"kind": "bpsk", "colour": 1}]), "sources[0] has unknown fields ['colour']"),
        (
            _with(sources=[{"kind": "block_nonstationary", "variance_profile": 5}]),
            "sources[0].variance_profile must be a list",
        ),
        (_with(statistics=[{}]), "statistics[0].statistic is missing"),
        (_with(statistics=[{"statistic": "autocorrelation"}]), "statistics[0].lag is missing"),
        (
            _with(statistics=[{"statistic": "pseudo_autocorrelation", "lag": -1}]),
            "statistics[0]: lag must satisfy 0 <= lag < T, got -1",
        ),
        (
            _with(statistics=[{"statistic": "windowed_covariance", "windows": [[0]]}]),
            "statistics[0]: a (start, length) window must be 2 integers, got [0]",
        ),
        (
            _with(statistics=[dict(_CUM4, pattern=5)]),
            "statistics[0].pattern: pattern bits must be a list of integers, got 5",
        ),
        (_with(statistics=[dict(_CUM4, pattern="0a00")]), "statistics[0].pattern: "),
        (_with(statistics=[dict(_CUM4, pattern="0")]), "statistics[0].pattern: pattern length"),
        # bits used to go through int(), which ran [0.5, 1, 0, 0.9] as 0100
        (
            _with(statistics=[dict(_CUM4, pattern=[0.5, 1, 0, 0.9])]),
            "statistics[0].pattern: pattern bits must be a list of integers, got [0.5, 1, 0, 0.9]",
        ),
        (
            _with(statistics=[dict(_CUM4, pattern=["0", "1", "0", "0"])]),
            "statistics[0].pattern: pattern bits must be a list of integers, got ['0', '1', '0', '0']",
        ),
        (
            _with(statistics=[dict(_CUM4, pattern=[True, False, False, True])]),
            "statistics[0].pattern: pattern bits must be a list of integers, got [True, False, False, True]",
        ),
        (_with(statistics=[dict(_CUM4, axes=[1, 5])]), "statistics[0].axes[1] must be an integer in 1..4, got 5"),
        (_with(statistics=[dict(_CUM4, axes=[2, 2])]), "statistics[0]: slice axes must be distinct"),
        (_with(statistics=[dict(_CUM4, fixed=[1])]), "statistics[0]: need 2 fixed channel indices, got 1"),
        (_with(statistics=[dict(_CUM4, fixed=[1, 3])]), "statistics[0].fixed[1] must be an integer in 1..2, got 3"),
        (_with(statistics=[dict(_CUM4, part="both")]), "statistics[0].part must be 'hermitian' or 'skew'"),
        (
            _with(statistics=[dict(_CUM4, statistic="lagged_cumulant_slice")]),
            "statistics[0].offsets is missing",
        ),
        (
            _with(statistics=[dict(_CUM4, part="hermitian")]),
            "statistics[0]: part applies only to a Hermitian-kind slice",
        ),
        (
            _with(statistics=[dict(_CUM4, pattern="0101", axes=[1, 3], part="skew")]),
            "statistics[0]: part applies only to a Hermitian-kind slice",
        ),
        (
            _with(
                sources=[{"kind": "block_nonstationary", "variance_profile": [1, 2]}],
                statistics=[{"statistic": "windowed_covariance", "windows": [[0, 0], [500, 500]]}],
            ),
            "statistics[0]: bad window (start=0, length=0)",
        ),
        (
            _with(statistics=[{"statistic": "autocorrelation", "lag": 1, "prat": "skew"}]),
            "statistics[0] has unknown fields ['prat']",
        ),
        (
            _with(statistics=[{"statistic": "covariance", "part": "skew"}]),
            "statistics[0] has unknown fields ['part']",
        ),
        (
            _with(statistics=[{"statistic": "pseudo_autocorrelation", "lag": 1, "windows": 3}]),
            "statistics[0] has unknown fields ['windows']",
        ),
        (
            _with(statistics=[{"statistic": "bogus"}]),
            "statistics[0].statistic must be one of 'covariance', 'pseudo_covariance', ",
        ),
    ],
)
def test_config_errors_name_the_json_path(doc, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        nio.config_from_dict(doc)


def test_config_seed_override():
    doc = {k: v for k, v in _CONFIG.items() if k != "seed"}
    assert nio.config_from_dict(doc, seed=9).seed == 9
    assert nio.config_from_dict(_CONFIG, seed=0).seed == 0
    with pytest.raises(ConfigError, match="document must be an object"):
        nio.config_from_dict(5, seed=3)


def test_malformed_entries_rejected():
    with pytest.raises(ConfigError):
        nio.matrix_set_from_dict({"m": 2, "matrices": [{"kind": "hermitian", "entries": [[1, 0]]}]})
    with pytest.raises(ConfigError):
        nio.signal_from_dict({"m": 1, "T": 3, "channels": [[[1, 0], [0, 1]]]})


def test_part_on_hermitian_kind_slice_accepted():
    stat = dict(_CUM4, pattern="0101", axes=[1, 2], part="skew")
    assert nio.config_from_dict(_with(statistics=[stat])).statistics[0]["part"] == "skew"


def test_part_on_autocorrelation_accepted():
    stat = {"statistic": "autocorrelation", "lag": 2, "part": "skew"}
    assert nio.config_from_dict(_with(statistics=[stat])).statistics[0] == stat


# one valid entry per statistic, at T = 200 on two sources
_VALID_ENTRIES = [
    {"statistic": "covariance"},
    {"statistic": "pseudo_covariance"},
    {"statistic": "autocorrelation", "lag": 1, "part": "skew"},
    {"statistic": "pseudo_autocorrelation", "lag": 2},
    {"statistic": "windowed_covariance", "windows": [[0, 100], [100, 100]]},
    {"statistic": "cumulant_slice", "pattern": "0101", "axes": [1, 2], "fixed": [1, 2], "part": "skew"},
    {"statistic": "lagged_cumulant_slice", "pattern": "0000", "offsets": [0, 1, 0, 0],
     "axes": [1, 2], "fixed": [1, 1]},
]
_ODD_VALUES = [[], {}, {"a": 1}, "x", True, False, None, float("nan"), 1.5, -1, 10**30,
               [1.5], [True, 1], ["0", "1"], [0, 199]]


@st.composite
def _mutated_entries(draw):
    """A valid entry with one field dropped, replaced, or one list item replaced."""
    entry = dict(draw(st.sampled_from(_VALID_ENTRIES)))
    key = draw(st.sampled_from(sorted(entry)))
    how = draw(st.sampled_from(["drop", "replace", "replace_item"]))
    if how == "drop":
        del entry[key]
    elif how == "replace" or not isinstance(entry[key], list):
        entry[key] = draw(st.sampled_from(_ODD_VALUES))
    else:
        items = list(entry[key])
        items[draw(st.integers(0, len(items) - 1))] = draw(st.sampled_from(_ODD_VALUES))
        entry[key] = items
    return entry


# numbers past the float range, past the power cap, or not finite
_ODD_NUMBERS = [10**400, 1e300, -1e300, float("inf"), -float("inf"), 2.0**201, 0]
_MUTANTS = _ODD_VALUES + _ODD_NUMBERS
# one valid source of each shape of fields; a qpsk source is always the second
_VALID_SOURCES = [
    {"kind": "ar1_noncircular", "circularity": 0.9, "coefficient": 0.5},
    {"kind": "noncircular_gaussian", "circularity": 0.3, "power": 2},
    {"kind": "block_nonstationary", "variance_profile": [1, 4.0], "power": 0.5},
    {"kind": "bpsk", "power": 2.0**200},
]
# with a first entry of the other kind, the two matrices PUT solves
_SECOND_ENTRIES = [{"statistic": "covariance"}, {"statistic": "pseudo_covariance"}]
_TOP_LEVEL = ["T", "trials", "seed", "margin", "cond_cap", "noise_snr_db", "equiv_tol"]


@st.composite
def _mutated(draw, entry: dict, keys: list):
    """``entry`` with one of ``keys`` dropped or replaced, or one item of a
    list field replaced, by one of ``_MUTANTS``."""
    entry = dict(entry)
    key = draw(st.sampled_from(keys))
    how = draw(st.sampled_from(["drop", "replace", "replace_item"]))
    if how == "drop":
        entry.pop(key, None)
    elif how == "replace" or not isinstance(entry.get(key), list):
        entry[key] = draw(st.sampled_from(_MUTANTS))
    else:
        items = list(entry[key])
        items[draw(st.integers(0, len(items) - 1))] = draw(st.sampled_from(_MUTANTS))
        entry[key] = items
    return entry


@st.composite
def _mutated_configs(draw):
    """A valid T = 200 config of two recipe entries with the first entry, the
    first source or one top-level field mutated."""
    source = draw(st.sampled_from(_VALID_SOURCES))
    where = draw(st.sampled_from(["statistic", "source", "top"]))
    doc = {
        "sources": [source, {"kind": "qpsk"}],
        "T": 200,
        "seed": 3,
        "trials": 1,
        "statistics": [
            draw(_mutated_entries() if where == "statistic" else st.sampled_from(_VALID_ENTRIES)),
            draw(st.sampled_from(_SECOND_ENTRIES)),
        ],
    }
    if where == "source":
        keys = ["kind", "power", "circularity", "coefficient", "variance_profile"]
        doc["sources"][0] = draw(_mutated(source, keys))
    elif where == "top":
        doc = draw(_mutated(doc, _TOP_LEVEL))
    return doc


def _run_one_trial(config):
    """Run one trial of ``config`` (each runs the same code) with a
    RuntimeWarning outside the estimators raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run_experiment(dataclasses.replace(config, trials=1))  # per-trial errors are records


@settings(max_examples=300, deadline=None)
@given(_mutated_configs())
def test_mutated_recipe_entry_is_rejected_or_runs(doc):
    try:
        config = nio.config_from_dict(doc)
    except ConfigError:
        return
    _run_one_trial(config)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_mutated_python_config_is_rejected_or_runs(data):
    """The values of the file case, built in Python: SourceSpec,
    ExperimentConfig and generate raise nothing but ConfigError."""
    value = data.draw(st.sampled_from(_MUTANTS))
    source = dict(data.draw(st.sampled_from(_VALID_SOURCES)))
    config = {"sources": [None, SourceSpec("qpsk")], "T": 200, "seed": 3,
              "statistics": [data.draw(st.sampled_from(_VALID_ENTRIES)),
                             data.draw(st.sampled_from(_SECOND_ENTRIES))]}
    target = data.draw(st.sampled_from(["SourceSpec", "ExperimentConfig", "generate"]))
    try:
        if target == "SourceSpec":
            field = data.draw(st.sampled_from(["kind", "power", "circularity", "coefficient",
                                               "variance_profile", "variance_profile[0]"]))
            if field == "variance_profile[0]":
                source["variance_profile"] = [value, *source.get("variance_profile", [1.0])[1:]]
            else:
                source[field] = value
        config["sources"][0] = SourceSpec(**source)
        if target == "ExperimentConfig":
            field = data.draw(st.sampled_from([*_TOP_LEVEL, "sources[0]"]))
            if field == "sources[0]":
                config["sources"][0] = value
            else:
                config[field] = value
        elif target == "generate":
            args = {"specs": config["sources"], "t": 200, "seed": [3, 0], "cond_cap": 100.0}
            args[data.draw(st.sampled_from(sorted(set(args) - {"specs"})))] = value
            generate(**args)
            return
        statistics = [nio._statistic_from_dict(s, "", 2) for s in config.pop("statistics")]
        _run_one_trial(ExperimentConfig(statistics=statistics, **config))
    except ConfigError:
        pass


# ---------------------------------------------------------------------------
# the writer: exactly json.dumps(doc, indent=2), with pair lists encoded in C

_EDGE_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, 1e16, 0.1]
_numbers = st.one_of(
    st.floats(),
    st.sampled_from(_EDGE_FLOATS),
    st.integers(),
    st.floats().map(np.float64),
)
_pair = st.lists(_numbers, min_size=2, max_size=2)
_strings = st.text(alphabet=st.sampled_from('ab"\\\n\t /\x00é€𝄞'), max_size=8)
_near_pair = st.lists(st.one_of(_numbers, st.booleans(), _strings), min_size=2, max_size=3)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    _numbers,
    _strings,
    st.lists(_pair, min_size=1, max_size=5),
    st.sampled_from([[], {}, ()]),
)
_documents = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        # pairs next to pairs that hold a bool, a string or a third entry
        st.lists(st.one_of(_pair, _near_pair), max_size=4),
        st.tuples(children, children),
        st.dictionaries(_strings, children, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.floats(), st.booleans(), st.none(), _strings), children, max_size=3),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(_documents)
def test_write_json_is_json_dumps_indent_2(tmp_path_factory, doc):
    text = json.dumps(doc, indent=2) + "\n"
    assert nio.write_json(doc) == text
    path = tmp_path_factory.getbasetemp() / "write_json_doc.json"
    assert nio.write_json(doc, path) is None
    assert path.read_bytes() == text.encode()


_SLICE = nio._PAIR_SLICE


def _long_pair_list(n: int) -> list:
    """``n`` pairs that cycle through -0.0, NaN, +-inf, ints and plain floats."""
    values = [-0.0, float("nan"), float("inf"), -float("inf"), 7, -(2**70), 0.1, 1e16, 5e-324]
    return [[values[i % len(values)], values[(i * 5 + 1) % len(values)]] for i in range(n)]


def _as_lists(value):
    """json's ``default`` hook of the writer's contract: an array is its ``.tolist()``."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@pytest.mark.parametrize("n", [1, _SLICE - 1, _SLICE, _SLICE + 1, 2 * _SLICE + 1])
@pytest.mark.parametrize("nest", ["alone", "in_dict", "array", "array_in_dict"])
def test_write_json_pair_lists_across_slices(tmp_path, n, nest):
    pairs = _long_pair_list(n)
    if nest.startswith("array"):
        pairs = np.array(pairs, dtype=float)
    doc = pairs if nest in ("alone", "array") else {"m": 2, "channels": [pairs, [[1, 2]]], "tail": pairs}
    text = json.dumps(doc, indent=2, default=_as_lists) + "\n"
    assert nio.write_json(doc) == text
    nio.write_json(doc, tmp_path / "d.json")
    assert (tmp_path / "d.json").read_bytes() == text.encode()


def test_write_json_to_a_file_holds_no_document_sized_text(tmp_path, rng):
    data = rng.standard_normal((4, 20_000)) + 1j * rng.standard_normal((4, 20_000))
    doc = nio.signal_to_dict(SignalBlock(data))
    path = tmp_path / "signal.json"
    tracemalloc.start()
    try:
        nio.write_json(doc, path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 8


def _pair_reference(z) -> list:
    """The per-sample encoding the vectorized codec replaced."""
    z = complex(z)
    return [float(z.real), float(z.imag)]


def test_signal_to_dict_matches_per_sample_pairs(rng):
    data = rng.standard_normal((3, 64)) + 1j * rng.standard_normal((3, 64))
    data[0, :6] = [-0.0, complex(0.0, -0.0), 5e-324, 1e16, complex(-1e-310, 3e300), 7]
    data[1] = data[1].real  # imaginary parts exactly zero
    block = SignalBlock(data)
    doc = nio.signal_to_dict(block)
    reference = [[_pair_reference(z) for z in row] for row in block.data]
    channels = [ch.tolist() for ch in doc["channels"]]
    assert channels == reference
    assert {type(v) for ch in channels for p in ch for v in p} == {float}
    # equal lists can still differ in the sign of a zero; the text cannot
    assert json.dumps(channels) == json.dumps(reference)
    assert nio.write_json(doc) == json.dumps(dict(doc, channels=reference), indent=2) + "\n"
    # each channel is a read-only view of the block's data, not a copy
    for ch, row in zip(doc["channels"], block.data):
        assert np.shares_memory(ch, row) and not ch.flags.writeable


def test_matrix_and_vector_pairs_match_per_entry_pairs(rng):
    mat = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    mat[0, 0] = complex(-0.0, -0.0)
    real = np.array([1.5, -0.0, 2.0])
    strided = (rng.standard_normal(12) + 1j * rng.standard_normal(12))[::3]
    # a transposed matrix and a strided vector give their pairs in row-major order
    for values in (mat, mat.T, strided, real):
        reference = [_pair_reference(z) for z in values.ravel()]
        assert json.dumps(nio._pairs(values).tolist()) == json.dumps(reference)
    assert nio.write_json(nio._pairs(real)) == json.dumps([_pair_reference(z) for z in real], indent=2) + "\n"
    # a contiguous complex128 array is viewed, not copied
    assert np.shares_memory(nio._pairs(mat), mat)


# a document of each format around one list of [re, im] pairs
_PAIR_DOCS = {
    "signal": lambda pairs: {"m": 1, "T": 4, "channels": [pairs]},
    "matrix_set": lambda pairs: {"m": 2, "matrices": [{"kind": "transpose", "entries": pairs}]},
    "spectra": lambda pairs: {"m": 4, "spectra": [{"kind": "transpose", "diag": pairs}]},
}


@pytest.mark.parametrize("layout", ["fortran", "column_strided"])
@pytest.mark.parametrize("fmt", _PAIR_DOCS)
def test_non_contiguous_pair_arrays_decode_as_their_lists(fmt, layout):
    """An (n, 2) float array whose rows are not contiguous cannot be viewed
    as complex; it is copied and decodes as its list does."""
    pairs = [[1.0, -0.0], [-2.5, 3.0], [-2.5, 3.0], [5e-324, -4.0]]  # a symmetric 2x2 matrix
    if layout == "fortran":
        arr = np.asfortranarray(pairs)
    else:
        arr = np.zeros((4, 4))
        arr[:, ::2] = pairs
        arr = arr[:, ::2]
    assert nio._is_pair_array(arr) and not arr.flags.c_contiguous
    expected = _outcome(fmt, _PAIR_DOCS[fmt](pairs))
    assert type(expected) is not str  # the list decodes
    assert _outcome(fmt, _PAIR_DOCS[fmt](arr)) == expected


def test_signal_codec_copies_a_signal_at_most_once(rng):
    """signal_to_dict allocates no signal-sized array, and signal_from_dict
    only the block it returns."""
    block = SignalBlock(rng.standard_normal((4, 200_000)) + 1j * rng.standard_normal((4, 200_000)))
    size = block.data.nbytes
    tracemalloc.start()
    try:
        doc = nio.signal_to_dict(block)
        written, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        back = nio.signal_from_dict(doc)
        read_peak = tracemalloc.get_traced_memory()[1] - written
    finally:
        tracemalloc.stop()
    assert peak < 0.01 * size
    assert read_peak < 1.25 * size
    assert back.data.tobytes() == block.data.tobytes()


# ---------------------------------------------------------------------------
# decoding pauses the cyclic GC and restores its state


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "text, window, stacked, loads",
    [('{"channels": [[[1, 2]]]}', None, 0, 0), ('{"channels": [[[1, 2]]', None, 0, 1),
     ('{"channels": [[[1.0, 2.0]], [[3.0, 4.0]]]}', None, 2, 0),
     ('{"channels": [[[1.0, 2.0]], [[3.0, 4.0]', None, 1, 1),
     ('{"channels": [[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]]}', 16, 3, 0),
     ('{"channels": [[[1.0, 2.0], [3.0, 4.0], [5, 6.0]]]}', 16, 2, 0),
     ('{"channels": [[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0],]]}', 16, 3, 1),
     ('{"m": [[1.0, 2.0]], "n": [[3.0, 4.0]]}', None, 0, 0)],
)
def test_read_json_restores_gc_state(tmp_path, monkeypatch, enabled, text, window, stacked, loads):
    path = tmp_path / "d.json"
    path.write_text(text)
    if window:
        monkeypatch.setattr(nio, "_WINDOW", window)
    seen = []
    load, stack = json.load, nio._stack
    # only invalid text is read again, by json.load
    monkeypatch.setattr(json, "load", lambda fh, **kw: seen.append(("load", gc.isenabled())) or load(fh, **kw))
    # the decoder stacks each piece of float pairs of "channels" as it scans it
    monkeypatch.setattr(nio, "_stack", lambda pairs: seen.append(("stack", gc.isenabled())) or stack(pairs))
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        try:
            nio.read_json(path)
        except json.JSONDecodeError:
            pass
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [("stack", False)] * stacked + [("load", False)] * loads


@pytest.mark.parametrize(
    "pairs",
    [
        [["1", "0"]],
        [[True, 0]],
        [[0, False]],
        [[None, 0]],
        [[10**400, 0]],
        [[1.0, 0.0], [1.0]],
        [[1.0, 0.0, 2.0]],
        [1.0, 0.0],
        [[[1.0, 0.0]]],
        "10",
        {"re": 1},
        7,
    ],
)
def test_pairs_must_hold_json_numbers(pairs):
    with pytest.raises(ConfigError, match=re.escape("diag must hold numeric [re, im] pairs")):
        nio.stacks_from_dict({"m": 1, "spectra": [{"kind": "transpose", "diag": pairs}]})


# ---------------------------------------------------------------------------
# pair lists are (n, 2) float arrays in memory


_PAIR_ARRAYS = st.lists(st.tuples(st.floats(), st.floats()), max_size=6).map(
    lambda pairs: np.array(pairs, dtype=float).reshape(-1, 2)
)
_OTHER_ARRAYS = st.one_of(
    st.lists(st.floats(), max_size=5).map(np.array),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=5).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.booleans(), max_size=5).map(np.array),
    st.floats().map(np.array),
    _PAIR_ARRAYS.map(lambda a: a.reshape(-1, 1, 2)),
)
_documents_with_arrays = st.recursive(
    st.one_of(_leaves, _PAIR_ARRAYS, _OTHER_ARRAYS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.tuples(children, children),
        st.dictionaries(_strings, children, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.booleans(), st.none()), children, max_size=3),
    ),
    max_leaves=16,
)


@settings(max_examples=300, deadline=None)
@given(_documents_with_arrays)
def test_write_json_takes_each_array_as_its_tolist(tmp_path_factory, doc):
    text = json.dumps(doc, indent=2, default=_as_lists) + "\n"
    assert nio.write_json(doc) == text
    path = tmp_path_factory.getbasetemp() / "write_json_arrays.json"
    nio.write_json(doc, path)
    assert path.read_bytes() == text.encode()


@pytest.mark.parametrize(
    "doc",
    [
        {"a": [[1.0, 2.0]], "b": np.int64(3)},
        {"a": nio._pairs(np.arange(3 * _SLICE)), "b": object()},
        [nio._pairs(np.ones(4)), np.array([1j])],
        {"a": (nio._pairs(np.ones(4)), {1 + 2j})},
        {1: [object()]},
    ],
)
def test_write_json_raises_before_the_file_is_opened(tmp_path, doc):
    path = tmp_path / "kept.json"
    path.write_text('{"kept": true}\n')
    with pytest.raises(TypeError, match="is not JSON serializable"):
        nio.write_json(doc, path)
    assert path.read_text() == '{"kept": true}\n'
    with pytest.raises(TypeError):
        nio.write_json(doc, tmp_path / "new.json")
    assert not (tmp_path / "new.json").exists()


def test_read_json_holds_one_pair_list_of_python_objects(tmp_path, rng):
    """A signal's channels are stacked one at a time: the decode never holds
    a tree of Python lists for the whole signal next to its text."""
    data = rng.standard_normal((4, 20_000)) + 1j * rng.standard_normal((4, 20_000))
    path = tmp_path / "signal.json"
    nio.write_json(nio.signal_to_dict(SignalBlock(data)), path)
    tracemalloc.start()
    try:
        block = nio.signal_from_dict(nio.read_json(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(block.data, data)
    assert peak < 2.5 * path.stat().st_size


def test_read_json_holds_a_window_of_the_text(tmp_path, rng, monkeypatch):
    """read_json's peak is the arrays it returns plus a fixed multiple of
    the window, not the file's text."""
    data = rng.standard_normal((4, 20_000)) + 1j * rng.standard_normal((4, 20_000))
    path = tmp_path / "signal.json"
    nio.write_json(nio.signal_to_dict(SignalBlock(data)), path)
    window = 64 * 1024
    monkeypatch.setattr(nio, "_WINDOW", window, raising=False)
    tracemalloc.start()
    try:
        doc = nio.read_json(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arrays = sum(ch.nbytes for ch in doc["channels"])
    assert arrays == data.size * 16 and path.stat().st_size > 4 * arrays
    assert peak < arrays + 12 * window


def _documents_of_every_format(rng) -> dict:
    items = list(tagged_put_pair(*put_pair(rng, 3)))
    sym = DiagonalStack(CongruenceKind.TRANSPOSE, rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3)))
    herm = DiagonalStack(CongruenceKind.HERMITIAN, rng.standard_normal((1, 3)))
    report = identifiability_master(DiagonalStack(CongruenceKind.TRANSPOSE, np.array([[1 + 1j, 2 + 2j]])), None)
    data = rng.standard_normal((2, 40)) + 1j * rng.standard_normal((2, 40))
    return {
        "matrix_set": nio.matrix_set_to_dict(items),
        "spectra": nio.stacks_to_dict(sym, herm),
        "signal": nio.signal_to_dict(SignalBlock(data)),
        "solution": nio.solution_to_dict(solve_pair(items, "put"), "put", None),
        "report": nio.uniqueness_report_to_dict(report),
    }


# where each format's float pair lists are arrays after read_json: only at a
# signal's channels[i]; every other document is the one json.load gives
_PAIR_ARRAY_FIELDS = {
    "matrix_set": [],
    "spectra": [],
    "signal": [("channels", 0), ("channels", 1)],
    "solution": [],
    "report": [],
}


def _at_path(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


def _arrays_in(value) -> list:
    if isinstance(value, np.ndarray):
        return [value]
    items = value.values() if isinstance(value, dict) else value if isinstance(value, list) else []
    return [a for v in items for a in _arrays_in(v)]


@pytest.mark.parametrize("fmt", sorted(_PAIR_ARRAY_FIELDS))
def test_every_format_reads_float_pairs_as_arrays(tmp_path, rng, fmt):
    doc = _documents_of_every_format(rng)[fmt]
    path = tmp_path / "d.json"
    nio.write_json(doc, path)
    back = nio.read_json(path)
    arrays = [_at_path(back, keys) for keys in _PAIR_ARRAY_FIELDS[fmt]]
    assert all(nio._is_pair_array(a) for a in arrays)
    assert {id(a) for a in _arrays_in(back)} == {id(a) for a in arrays}
    for keys in _PAIR_ARRAY_FIELDS[fmt]:
        assert _at_path(back, keys).tobytes() == _at_path(doc, keys).tobytes()
    if not arrays:
        assert back == json.loads(path.read_text())
    assert nio.write_json(back).encode() == path.read_bytes()


@pytest.mark.parametrize(
    "doc",
    [
        {"a": {"channels": [[[1.0, 2.0]]]}},
        [{"channels": [[[1.0, 2.0]]]}],
        {"m": 1, "matrices": [{"kind": "transpose", "entries": [[2.0, 0.0]], "channels": [[[1.0, 2.0]]]}]},
        {"x": [[1.0, 2.0]], "lambda": [[1.0, 2.0]], "witness": {"m": 1, "entries": [[1.0, 0.5]]}},
    ],
)
def test_pair_lists_outside_a_top_level_channels_stay_lists(tmp_path, doc):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(doc))
    back = nio.read_json(path)
    assert back == doc and not _arrays_in(back)


def test_fields_after_a_top_level_channels_stay_lists(tmp_path):
    text = '{"channels": [[[1.0, 2.0]]], "tail": [[[1.0, 2.0]]], "more": {"x": [[3.0, 4.0]]}}'
    path = tmp_path / "d.json"
    path.write_text(text)
    back, want = nio.read_json(path), json.loads(text)
    assert nio._is_pair_array(back["channels"][0])
    assert back["channels"][0].tobytes() == np.array(want["channels"][0]).tobytes()
    for key in ("tail", "more"):
        assert back[key] == want[key] and not _arrays_in(back[key])


@pytest.mark.parametrize("level", ['{"a": %s}', "[%s]"])
@pytest.mark.parametrize("outer", ["%s", '{"channels": [[[1.0, 2.0]], %s]}'])
def test_read_json_nests_as_deep_as_json_load(tmp_path, level, outer):
    text = "1"
    for _ in range(900):
        text = level % text
    text = outer % text
    path = tmp_path / "d.json"
    path.write_text(text)
    assert nio.write_json(nio.read_json(path)) == json.dumps(json.loads(text), indent=2) + "\n"


_DECODERS = {
    "signal": lambda doc: [nio.signal_from_dict(doc).data],
    "matrix_set": lambda doc: [(t.kind, t.matrix) for t in nio.matrix_set_from_dict(doc)],
    "spectra": lambda doc: [(s.kind, s.spectra) for s in nio.stacks_from_dict(doc)[:2] if s is not None],
    "config": lambda doc: [nio.config_from_dict(doc)],
}


def _bits(value):
    """``value`` with every array replaced by its dtype, shape and bytes,
    and every float by its bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if type(value) is float:
        return "float", struct.pack("<d", value)
    return value


def _outcome(fmt: str, doc):
    """The bits that ``fmt``'s decoder gives for ``doc``, or its error."""
    try:
        return _bits(_DECODERS[fmt](doc))
    except NujdError as exc:
        return f"{type(exc).__name__}: {exc}"


_BIG_INT = "1" + "0" * 400
_DECODE_CASES = [
    ("signal", '{"m": 1, "T": 2, "channels": [[[1.0, 0.5], [-0.0, 2.0]]]}'),
    ("signal", '{"m": 1, "T": 2, "channels": [[[1, 0.5], [0.0, 2]]]}'),
    ("signal", '{"m": 2, "T": 1, "channels": [[[1, 0]], [[0.0, 2.0]]]}'),
    ("signal", '{"m": 1, "T": 2, "channels": [[[1.0, 0.5], [2.0]]]}'),
    ("signal", '{"m": 1, "T": 2, "channels": [[[1.0, 0.5], [true, 2.0]]]}'),
    ("signal", '{"m": 1, "T": 2, "channels": [[[1.0, 0.5], ["2", 2.0]]]}'),
    ("signal", '{"m": 1, "T": 1, "channels": [[[%s, 0.0]]]}' % _BIG_INT),
    ("signal", '{"m": 1, "T": 1, "channels": [[[1e400, 0.0]]]}'),
    ("signal", '{"m": 1, "T": 3, "channels": [[[1.0, 0.5], [2.0, 1.0]]]}'),
    ("signal", '{"m": 1, "T": 1, "channels": [[[[1.0, 0.5]]]]}'),
    ("signal", '{"m": 2, "T": 1, "channels": [[[1.0, 0.5]]]}'),
    ("signal", '{"m": 1, "T": 1, "channels": [[]]}'),
    ("matrix_set", '{"m": 1, "matrices": [{"kind": "transpose", "entries": [[2.0, 0.0]]}]}'),
    ("matrix_set", '{"m": 1, "matrices": [{"kind": "hermitian", "entries": [[2, 0]]}]}'),
    ("matrix_set", '{"m": 2, "matrices": [{"kind": "hermitian", "entries": [[1.0, 0.0]]}]}'),
    ("spectra", '{"m": 2, "spectra": [{"kind": "transpose", "diag": [[1.0, 0.5], [2.0, 0.0]]}]}'),
    ("spectra", '{"m": 2, "spectra": [{"kind": "hermitian", "diag": [[1, 0], [2.5, 0]]}]}'),
    ("spectra", '{"m": 1, "spectra": [{"kind": "transpose", "diag": [[true, 0]]}]}'),
]


@pytest.mark.parametrize("fmt, text", _DECODE_CASES)
def test_int_or_mixed_pairs_stay_lists_and_decode_as_before(tmp_path, fmt, text):
    """read_json and json.loads give documents that decode to the same bits
    or fail with the same error; only all-float pair lists are arrays."""
    path = tmp_path / "d.json"
    path.write_text(text)
    back = nio.read_json(path)
    assert _outcome(fmt, back) == _outcome(fmt, json.loads(text))
    if fmt == "signal":
        for raw, ch in zip(json.loads(text)["channels"], back["channels"]):
            floats = bool(raw) and nio._is_pair_list(raw, {float})
            assert nio._is_pair_array(ch) if floats else type(ch) is list
            assert nio.write_json(ch) == json.dumps(raw, indent=2) + "\n"


_VALID_DOCUMENTS = {
    "signal": {"m": 1, "T": 2, "channels": [[[1.0, 0.5], [-0.5, 2.0]]]},
    "matrix_set": {"m": 1, "matrices": [{"kind": "transpose", "entries": [[2.0, 0.0]]}]},
    "spectra": {"m": 1, "spectra": [{"kind": "transpose", "diag": [[1.0, 0.5]]}]},
    "config": dict(_CONFIG, solver="put", margin=0.01),
}
# pair-list values; in a signal's "channels" read_json holds the float pair lists among them as arrays
_PAIR_JUNK = ['[[1.0, 2.0]]', '[[[1.0, 2.0]]]', '{"a": [[1.0, 2.0]]}', '[[[1.0, 2.0]], {"b": [[1.0, 2.0]]}]']


@pytest.mark.parametrize("junk", _PAIR_JUNK)
@pytest.mark.parametrize(
    "fmt, key",
    [(fmt, key) for fmt, doc in _VALID_DOCUMENTS.items() for key in doc],
)
def test_pair_arrays_in_other_fields_fail_as_lists_do(tmp_path, fmt, key, junk):
    """A field that holds no pairs is checked, and named in its error, as it
    is in the document json.load gives."""
    text = json.dumps(dict(_VALID_DOCUMENTS[fmt], **{key: "JUNK"})).replace('"JUNK"', junk)
    path = tmp_path / "d.json"
    path.write_text(text)
    assert _outcome(fmt, nio.read_json(path)) == _outcome(fmt, json.loads(text))


_EDGE_VALUES = [-0.0, 5e-324, 1e16, 1e300, -1e300]


def _hermitian_around(z):
    """A Hermitian matrix with ``z``'s real parts on its diagonal and ``z[0]``
    above it (a Hermitian matrix's diagonal is real)."""
    h = np.diag(z.real).astype(complex)
    h[0, 1], h[1, 0] = z[0], z[0].conjugate()
    return h


# (arrays of complex data, writer, reader) per format; the reader gives
# back the arrays that the writer was given
_EDGE_FORMATS = {
    "signal": (
        lambda z: [z[None, :]],
        lambda arrays: nio.signal_to_dict(SignalBlock(arrays[0])),
        lambda doc: [nio.signal_from_dict(doc).data],
    ),
    "matrix_set": (
        lambda z: [np.diag(z), _hermitian_around(z)],
        lambda arrays: nio.matrix_set_to_dict(
            [TaggedMatrix(arrays[0], CongruenceKind.TRANSPOSE), TaggedMatrix(arrays[1], CongruenceKind.HERMITIAN)]
        ),
        lambda doc: [t.matrix for t in nio.matrix_set_from_dict(doc)],
    ),
    "spectra": (
        # a Hermitian row is real; a 1 keeps each stack nonzero
        lambda z: [np.vstack([z, np.ones(4)]), np.vstack([z.real, np.ones(4)]).astype(complex)],
        lambda arrays: nio.stacks_to_dict(
            DiagonalStack(CongruenceKind.TRANSPOSE, arrays[0]), DiagonalStack(CongruenceKind.HERMITIAN, arrays[1])
        ),
        lambda doc: [stack.spectra for stack in nio.stacks_from_dict(doc)[:2]],
    ),
}


@pytest.mark.parametrize("value", _EDGE_VALUES)
def test_edge_floats_round_trip_byte_for_byte(tmp_path, value):
    """Write -> read -> decode gives the written bits, a zero's sign
    included, and encoding them again writes the same text."""
    z = np.array([complex(value, -value), complex(-value, value), complex(value, 0.0), complex(0.0, value)])
    for fmt, (build, encode, decode) in _EDGE_FORMATS.items():
        arrays = build(z)
        doc = encode(arrays)
        path = tmp_path / f"{fmt}.json"
        nio.write_json(doc, path)
        text = path.read_text()
        if fmt == "signal":
            assert text == json.dumps(dict(doc, channels=[[_pair_reference(v) for v in z]]), indent=2) + "\n"
            assert nio.read_json(path)["channels"][0].tobytes() == doc["channels"][0].tobytes()
        assert nio.write_json(nio.read_json(path)) == text
        for back in (nio.read_json(path), json.loads(text)):
            decoded = decode(back)
            assert [a.tobytes() for a in decoded] == [a.tobytes() for a in arrays], fmt
            assert nio.write_json(encode(decoded)) == text, fmt


@pytest.mark.parametrize(
    "text",
    ['{"m": [[1, 2]', '{"a" 1}', '{"a": 1,}', '{"a": 1 "b": 2}', '{"a": [[[1.0, 2.0]]', '[[[1.0, 2.0], ]]',
     '[[[1.0, 2.0]] [[3.0, 4.0]]]', '[[[1.0, 2.0]],]', '[[[', '{"a": [[[1.0, 2.0]]]} x', '', ' \n ',
     '\ufeff{}', '{"a": [[[1.0, nan]]]}', '{"a": "\x01"}', '{1: 2}', '[[[1.0, 2.0]], {"a": ]]'],
)
def test_read_json_fails_as_json_load_does(tmp_path, text):
    path = tmp_path / "d.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(text)
    with pytest.raises(json.JSONDecodeError) as got:
        nio.read_json(path)
    assert (got.value.msg, got.value.pos) == (expected.value.msg, expected.value.pos)


@settings(max_examples=300, deadline=None)
@given(_documents, st.sampled_from([None, 2]))
def test_read_json_decodes_what_json_load_does(tmp_path_factory, doc, indent):
    text = json.dumps(doc, indent=indent)
    path = tmp_path_factory.getbasetemp() / "read_json_doc.json"
    path.write_text(text, encoding="utf-8")
    assert nio.write_json(nio.read_json(path)) == json.dumps(json.loads(text), indent=2) + "\n"


# ---------------------------------------------------------------------------
# read_json reads the text through a window of _WINDOW characters: every cut
# of a "channels" list decodes as the whole text does


def _as_read(text: str):
    """What read_json gives for ``text``: json.loads's document, with each
    non-empty list of float pairs in a top-level object's "channels" list an
    (n, 2) float array."""
    doc = json.loads(text)
    if type(doc) is dict and type(doc.get("channels")) is list:
        doc["channels"] = [
            np.array(ch, dtype=float) if type(ch) is list and ch and nio._is_pair_list(ch, {float}) else ch
            for ch in doc["channels"]
        ]
    return doc


def _window_texts() -> dict:
    rng = np.random.default_rng(31)
    data = rng.standard_normal((3, 300)) + 1j * rng.standard_normal((3, 300))
    data[0, :3] = [-0.0, complex(5e-324, -0.0), 1e16]
    doc = nio.signal_to_dict(SignalBlock(data))
    lists = dict(doc, channels=[ch.tolist() for ch in doc["channels"]])
    tail = dict(lists, channels=[*lists["channels"][:2], lists["channels"][2][:-1] + [[1, 2]]])
    odd = " ,".join(f"[ {re!r} ,{im!r} ] " for re, im in lists["channels"][1])
    odd = f'{{ "m" : 1 ,"T":300, "channels" :[ [ {odd}] \n] , "x" : [ 1 ,2 ] }}'
    strings = '[[1.0, 2.0], ["a],b", 1.0], [[1.0, 2.0], [3.0]], "],]", [1.0, [2.0, []]], "\\"],"]'
    strings = '{"channels": [[%s], [[3.0, 4.0]]], "tail": "],"}' % ", ".join([strings] * 40)
    deep = "[" * 900 + "1" + "]" * 900
    numbers = [0.0, 12.5, 1e5, -0.0, 1.5e-300, 7, -3, 1e16, 2.5e20, -1e-7]
    return {
        "numbers_across_cuts": json.dumps({f"k{i}": numbers[i % 10] for i in range(900)}),
        "indent_2": nio.write_json(doc),
        "compact": json.dumps(lists),
        "odd_spacing": odd,
        "int_pair_in_the_last_piece": json.dumps(tail),
        "strings_and_nested_lists": strings,
        "top_level_list": json.dumps([lists, lists["channels"]]),
        "deep_in_channels": '{"channels": [[[1.0, 2.0]], %s, [[1.0, 2.0], %s]]}' % (deep, deep),
        "channels_not_lists": '{"channels": [1, "x", {"a": [[1.0, 2.0]]}, [], [[1.0, 2.0]]], "channels ": [[[1.0, 2.0]]]}',
    }


_WINDOW_TEXTS = _window_texts()


@pytest.mark.parametrize("window", [7, 64, 4096])
@pytest.mark.parametrize("name", sorted(_WINDOW_TEXTS))
def test_read_json_reads_the_same_in_any_window(tmp_path, monkeypatch, window, name):
    text = _WINDOW_TEXTS[name]
    path = tmp_path / "d.json"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(nio, "_WINDOW", window)
    back, want = nio.read_json(path), _as_read(text)
    assert nio.write_json(back) == nio.write_json(want)
    if name == "deep_in_channels":  # deeper than _bits can recurse
        assert [type(ch) for ch in back["channels"]] == [np.ndarray, list, list]
        assert _bits(back["channels"][0]) == _bits(want["channels"][0])
    else:
        assert _bits(back) == _bits(want)


def test_window_texts_hold_what_they_are_named_for():
    texts = {name: _as_read(text) for name, text in _WINDOW_TEXTS.items() if name != "top_level_list"}
    assert all(nio._is_pair_array(ch) for ch in texts["indent_2"]["channels"])
    assert len(_WINDOW_TEXTS["compact"]) > 3 * 4096
    assert [type(ch) for ch in texts["int_pair_in_the_last_piece"]["channels"]] == [np.ndarray, np.ndarray, list]
    assert nio._is_pair_array(texts["odd_spacing"]["channels"][0]) and "]," not in _WINDOW_TEXTS["odd_spacing"]
    assert [type(ch) for ch in texts["strings_and_nested_lists"]["channels"]] == [list, np.ndarray]


def _invalid_window_texts() -> list:
    compact = _WINDOW_TEXTS["compact"]
    cuts = [compact[: len(compact) * k // 7] for k in range(1, 7)]
    return cuts + [
        '{"channels": [[[1.0, 2.0], ]]}',
        '{"channels": [[[1.0, 2.0],, [3.0, 4.0]]]}',
        '{"channels": [[[1.0, 2.0] [3.0, 4.0]]]}',
        '{"channels": [[[1.0, 2.0], [3.0, 4.0]], ]}',
        '{"channels": [[[1.0, 2.0], [3.0, 4.0]]] "m": 1}',
        '{"channels": [[[1.0, 2.0], ["a],b]]]}',
        '{"channels": [[[1.0, 2.0], [3.0, 4.0]]]} [',
        '{"channels": [[[1.0, 2.0], [3.0, 4.0]',
        '{"channels": [[[1.0, 2.0], [3.0, 4.0],',
        '{"channels": [[[1.0, 2.0], [3.0, 4.0],]',
        '{"channels": [[[1.0, 2.0], [3.0, 4.0]]], "channels": [[]]',
        '{"chan',
        '{"m": 1, "T": 12345',
        compact.replace("], [", "], , [", 1),
        compact.replace("], [", "] [", 1),
        compact[:-1] + ",}",
    ]


@pytest.mark.parametrize("window", [7, 64, 4096])
@pytest.mark.parametrize("text", _invalid_window_texts())
def test_read_json_fails_as_json_load_does_in_any_window(tmp_path, monkeypatch, window, text):
    path = tmp_path / "d.json"
    path.write_text(text, encoding="utf-8")
    monkeypatch.setattr(nio, "_WINDOW", window)
    with pytest.raises(json.JSONDecodeError) as expected:
        json.loads(text)
    with pytest.raises(json.JSONDecodeError) as got:
        nio.read_json(path)
    assert (got.value.msg, got.value.pos) == (expected.value.msg, expected.value.pos)


@pytest.mark.parametrize("window", [7, 64, 4096])
@pytest.mark.parametrize("head", ["", '{"a": %s, ' % ("[" * 100_000 + "]" * 100_000)])
def test_read_json_names_a_bad_byte_past_the_window_as_json_load_does(tmp_path, monkeypatch, window, head):
    """An invalid byte after the first window, also after a value nested
    too deeply, fails with json.load's UnicodeDecodeError and offset."""
    raw = (head + _WINDOW_TEXTS["compact"][len(head) > 0:]).encode()
    at = 2 * window + 5 + len(head)
    raw = raw[:at] + b"\xff" + raw[at + 1:]
    path = tmp_path / "d.json"
    path.write_bytes(raw)
    monkeypatch.setattr(nio, "_WINDOW", window)
    with open(path, encoding="utf-8") as fh, pytest.raises(UnicodeDecodeError) as expected:
        json.load(fh)
    with pytest.raises(UnicodeDecodeError) as got:
        nio.read_json(path)
    assert (got.value.reason, got.value.start) == (expected.value.reason, expected.value.start) == ("invalid start byte", at)


_signal_like = st.fixed_dictionaries(
    {"channels": st.lists(st.one_of(st.lists(st.one_of(_pair, _near_pair), max_size=6), _documents), max_size=4)},
    optional={"m": _documents, "channels ": _documents},
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_documents, _signal_like), st.sampled_from([None, 2]), st.sampled_from([1, 7]))
def test_read_json_decodes_what_json_load_does_in_a_tiny_window(tmp_path_factory, doc, indent, window):
    text = json.dumps(doc, indent=indent)
    path = tmp_path_factory.getbasetemp() / "read_json_window_doc.json"
    path.write_text(text, encoding="utf-8")
    with mock.patch.object(nio, "_WINDOW", window):
        back = nio.read_json(path)
    assert _bits(back) == _bits(_as_read(text))
    assert nio.write_json(back) == json.dumps(json.loads(text), indent=2) + "\n"
