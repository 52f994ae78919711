import json
import re

import numpy as np
import pytest

from nujd import io as nio
from nujd.core import CongruenceKind, DiagonalStack, TaggedMatrix
from nujd.errors import ConfigError
from nujd.statistics import SignalBlock
from nujd.uniqueness import identifiability_master, unique_thm1


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
    rep = unique_thm1(DiagonalStack(CongruenceKind.TRANSPOSE, np.array([[1 + 1j, 2 + 2j]])))
    doc = nio.uniqueness_report_to_dict(rep)
    assert doc["verdict"] == "NotUnique"
    assert doc["pair"] == [1, 2]  # 1-based at the file surface
    w = nio.gl_from_dict(doc["witness"])
    assert w.m == 2
    text = json.dumps(doc)
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
        (_with(margin="0.01"), "margin must be a number, got '0.01'"),
        (_with(sources=[5]), "sources[0] must be an object"),
        (_with(sources=[{"power": 1}]), "sources[0].kind is missing"),
        (_with(sources=[{"kind": "bpsk", "power": "2"}]), "sources[0].power must be a number, got '2'"),
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
            "statistics[0].lag must be a non-negative integer, got -1",
        ),
        (
            _with(statistics=[{"statistic": "windowed_covariance", "windows": [[0]]}]),
            "statistics[0].windows[0] must list 2 integers, got 1",
        ),
        (_with(statistics=[dict(_CUM4, pattern=5)]), "statistics[0].pattern must be a string"),
        (_with(statistics=[dict(_CUM4, pattern="0a00")]), "statistics[0].pattern: "),
        (_with(statistics=[dict(_CUM4, pattern="0")]), "statistics[0].pattern: pattern length"),
        (_with(statistics=[dict(_CUM4, axes=[1, 5])]), "statistics[0].axes[1] must be an integer in 1..4, got 5"),
        (_with(statistics=[dict(_CUM4, axes=[2, 2])]), "statistics[0].axes must name two different slots"),
        (_with(statistics=[dict(_CUM4, fixed=[1])]), "statistics[0].fixed must list 2 integers, got 1"),
        (_with(statistics=[dict(_CUM4, fixed=[1, 3])]), "statistics[0].fixed[1] must be an integer in 1..2, got 3"),
        (_with(statistics=[dict(_CUM4, part="both")]), "statistics[0].part must be 'hermitian' or 'skew'"),
        (
            _with(statistics=[dict(_CUM4, statistic="lagged_cumulant_slice")]),
            "statistics[0].offsets is missing",
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
