"""JSON file formats for matrix sets, spectra, signals, reports, and configs.

Complex scalars are encoded as [re, im] pairs; matrix entries are row-major.
The ``*_to_dict`` functions hold each list of pairs as an (n, 2) float64
array.  ``read_json`` returns what ``json.load`` returns, except that each
list of float pairs in a top-level object's ``"channels"`` is such an array
(the ``*_from_dict`` functions take either form).  Writers emit exactly the
text of ``json.dumps(doc, indent=2)`` with each array as its ``.tolist()``,
so a write -> read -> write cycle is byte identical; a write to a file
streams a pair array's text one slice of pairs at a time.  Decoding runs
with the cyclic GC paused: documents are trees, so its passes would find
nothing to collect.  Channel and tensor-slot indices are 1-based at the
file surface and 0-based inside the library; time offsets and window starts
are plain 0-based sample indices.  A recipe entry, whether from a config
file or from ``nujd estimate``'s flags, is decoded by
``_statistic_from_dict``, which only makes a slice's 1-based ``axes`` and
``fixed`` 0-based, and then checked once, by ``simulation._check_statistic``
(which ``ExperimentConfig`` runs).  Every other config value is checked by
``ExperimentConfig`` or ``SourceSpec`` too.
"""

from __future__ import annotations

import gc
import hashlib
import json
from contextlib import contextmanager
from itertools import chain
from json.decoder import JSONArray, JSONObject
from typing import Optional, Sequence

import numpy as np

from .core import TAU_SYM, CongruenceKind, DiagonalStack, TaggedMatrix, fro_exceeds, stacks_from_rows
from .errors import ConfigError
from .simulation import ExperimentConfig, SourceSpec, _check_count
from .statistics import _as_pattern
from .solvers import PutResult
from .uniqueness import UniquenessReport


@contextmanager
def _no_gc():
    """Pause the cyclic GC, restoring its previous state on exit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


_NUMBER_TYPES = {int, float}
_FLOAT_TYPE = {float}


def _is_pair_list(value, numbers=_NUMBER_TYPES) -> bool:
    """A non-empty list of 2-lists of JSON numbers (int or float, never bool)
    whose types are all in ``numbers``."""
    return (
        set(map(type, value)) == {list}
        and set(map(len, value)) == {2}
        and set(map(type, chain.from_iterable(value))) <= numbers
    )


def _is_pair_array(value) -> bool:
    """An (n, 2) float64 array: the in-memory form of a list of [re, im] pairs."""
    return type(value) is np.ndarray and value.dtype == np.float64 and value.ndim == 2 and value.shape[1] == 2


def _stack(pairs: list) -> np.ndarray:
    """The (n, 2) float array of a list of [re, im] pairs of JSON numbers."""
    return np.fromiter(chain.from_iterable(pairs), float, 2 * len(pairs)).reshape(-1, 2)


# Pairs per C-encoder call: a write holds one slice's floats and text at a time.
_PAIR_SLICE = 1024


def _tolist(value):
    """json's ``default`` hook: a numpy array is encoded as its ``.tolist()``."""
    if type(value) is np.ndarray:
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _encode(value, indent: str, arrays: bool = True):
    """The text of ``json.dumps(value, indent=2)``, each numpy array taken as
    its ``.tolist()``, for a value placed at ``indent``, as a sequence of
    pieces.  With ``arrays`` false, (n, 2) float arrays give no text: a dry
    run that raises wherever the full encode would."""
    inner = indent + "  "
    if _is_pair_array(value) and len(value):
        if not arrays:
            return
        # One C-encoder call per slice; its "[[a, b], [c, d]]" text holds
        # only numbers, brackets, commas and spaces, so two replaces indent it.
        leaf = inner + "  "
        between = f"\n{inner}],\n{inner}[\n{leaf}"
        yield f"[\n{inner}[\n{leaf}"
        for start in range(0, len(value), _PAIR_SLICE):
            if start:
                yield between
            yield (
                json.dumps(value[start:start + _PAIR_SLICE].tolist())[2:-2]
                .replace("], [", between)
                .replace(", ", f",\n{leaf}")
            )
        yield f"\n{inner}]\n{indent}]"
    elif type(value) is np.ndarray:
        yield from _encode(value.tolist(), indent, arrays)
    elif type(value) is list and value:
        opening = "["
        for v in value:
            yield f"{opening}\n{inner}"
            opening = ","
            yield from _encode(v, inner, arrays)
        yield f"\n{indent}]"
    elif type(value) is dict and value and all(type(k) is str for k in value):
        opening = "{"
        for k, v in value.items():
            yield f"{opening}\n{inner}{json.dumps(k)}: "
            opening = ","
            yield from _encode(v, inner, arrays)
        yield f"\n{indent}}}"
    else:
        # JSON text never holds a raw newline inside a string.
        yield json.dumps(value, indent=2, default=_tolist).replace("\n", "\n" + indent)


def write_json(obj, path=None) -> Optional[str]:
    """``json.dumps(obj, indent=2) + "\\n"`` with each numpy array taken as its
    ``.tolist()``, returned as one string, or written to ``path`` piece by
    piece (returning None), so that a file's text is never held whole.  A
    dry run encodes all but the (n, 2) float arrays, which always encode,
    before ``path`` is opened: a value that json cannot encode raises its
    TypeError with the file untouched."""
    if path is None:
        return "".join(chain(_encode(obj, ""), ("\n",)))
    for _ in _encode(obj, "", arrays=False):
        pass
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(chain(_encode(obj, ""), ("\n",)))


class _KeyMemo(dict):
    """``JSONObject``'s key memo, which also keeps the last key it was given:
    ``JSONObject`` calls ``memo.setdefault(key, key)`` right before it scans
    that key's value."""

    key = None

    def setdefault(self, key, default=None):
        self.key = key
        return super().setdefault(key, default)


class _ChannelDecoder(json.JSONDecoder):
    """The stdlib decoder, except that a top-level object's ``"channels"``
    value is walked by ``JSONArray``, and each list of [re, im] float pairs
    in it becomes an (n, 2) float array as soon as the C scanner has read it.

    Only the top-level object goes through the Python ``JSONObject``; every
    other value goes to the C scanner whole.  So a signal exists as Python
    objects one channel at a time, and the nesting limit is ``json.load``'s.
    """

    def __init__(self):
        super().__init__()
        scan_c, strict, memo = self.scan_once, self.strict, _KeyMemo()

        def scan_channel(s, idx):
            value, end = scan_c(s, idx)
            if type(value) is list and value and _is_pair_list(value, _FLOAT_TYPE):
                value = _stack(value)
            return value, end

        def scan_value(s, idx):
            if memo.key == "channels" and s.startswith("[", idx):
                return JSONArray((s, idx + 1), scan_channel)
            return scan_c(s, idx)

        def scan_once(s, idx):
            if s.startswith("{", idx):
                return JSONObject((s, idx + 1), strict, scan_value, None, None, memo)
            return scan_c(s, idx)

        self.scan_once = scan_once


def read_json(path):
    """``json.load`` of the file at ``path`` with the cyclic GC paused, each
    list of [re, im] float pairs in a top-level object's ``"channels"`` an
    (n, 2) float array."""
    with open(path, "r", encoding="utf-8") as fh, _no_gc():
        return json.load(fh, cls=_ChannelDecoder)


def _pairs(values) -> np.ndarray:
    """The (n, 2) float array of [re, im] pairs of a complex array's entries,
    in row-major order."""
    a = np.asarray(values, dtype=np.complex128)
    return np.stack((a.real, a.imag), -1).reshape(-1, 2)


def _floats(pairs, path: str) -> np.ndarray:
    """An (n, 2) float array from [re, im] pairs of JSON numbers: a list of
    them, or the (n, 2) float array that ``read_json`` and ``_pairs`` give."""
    if _is_pair_array(pairs):
        return pairs
    if type(pairs) is list and (not pairs or _is_pair_list(pairs)):
        try:
            return _stack(pairs)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ConfigError(f"{path} must hold numeric [re, im] pairs")


def _matrix_from_pairs(pairs, rows: int, cols: int, path: str) -> np.ndarray:
    arr = _floats(pairs, path)
    if len(arr) != rows * cols:
        raise ConfigError(f"{path}: expected {rows * cols} [re, im] entries, got {len(arr)}")
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(rows, cols)


def _vector_from_pairs(pairs, path: str) -> np.ndarray:
    arr = _floats(pairs, path)
    return arr[:, 0] + 1j * arr[:, 1]


def _at(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _field(entry, key: str, path: str = ""):
    """``entry[key]``, or a ConfigError naming the JSON path when it is absent.

    ``path`` is the JSON path of ``entry``; the empty path is the document.
    """
    if not isinstance(entry, dict):
        raise ConfigError(f"{path or 'document'} must be an object")
    if key not in entry:
        raise ConfigError(f"{_at(path, key)} is missing")
    return entry[key]


def _known(entry: dict, fields: tuple, path: str = "") -> None:
    """ConfigError naming the JSON path when ``entry`` has a field not in ``fields``."""
    extra = set(entry) - set(fields)
    if extra:
        raise ConfigError(f"{path or 'document'} has unknown fields {sorted(extra)}")


def _count(doc, key: str) -> int:
    """A positive-integer field of a document."""
    return _check_count(_field(doc, key), key)


def _list(doc, key: str, path: str = "") -> list:
    """A list field."""
    value = _field(doc, key, path)
    if not isinstance(value, list):
        raise ConfigError(f"{_at(path, key)} must be a list")
    return value


def _kind_at(entry, path: str) -> CongruenceKind:
    value = _field(entry, "kind", path)
    try:
        return CongruenceKind(value)
    except ValueError:
        choices = ", ".join(repr(k.value) for k in CongruenceKind)
        raise ConfigError(f"{path}.kind must be one of {choices}, got {value!r}") from None


# ---------------------------------------------------------------------------
# matrix sets


def matrix_set_to_dict(items: Sequence[TaggedMatrix], provenance: Optional[dict] = None) -> dict:
    items = list(items)
    if not items:
        raise ConfigError("matrix set must be non-empty")
    m = items[0].m
    doc = {
        "m": int(m),
        "matrices": [
            {"kind": t.kind.value, "entries": _pairs(t.matrix)}
            for t in items
        ],
    }
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def matrix_set_from_dict(doc: dict) -> list:
    m = _count(doc, "m")
    out = []
    for i, entry in enumerate(_list(doc, "matrices")):
        path = f"matrices[{i}]"
        kind = _kind_at(entry, path)
        entries = _field(entry, "entries", path)
        out.append(TaggedMatrix(_matrix_from_pairs(entries, m, m, f"{path}.entries"), kind))
    if not out:
        raise ConfigError("matrix-set document lists no matrices")
    return out


# ---------------------------------------------------------------------------
# spectra (diagonal stacks)


def stacks_to_dict(sym: Optional[DiagonalStack], herm: Optional[DiagonalStack]) -> dict:
    entries = []
    m = None
    for stack in (sym, herm):
        if stack is None:
            continue
        m = stack.m
        for row in stack.spectra:
            entries.append({"kind": stack.kind.value, "diag": _pairs(row)})
    if m is None:
        raise ConfigError("no spectra to write")
    return {"m": int(m), "spectra": entries}


def stacks_from_dict(doc: dict):
    """(transpose stack, Hermitian stack, m) of a spectra document, or of a
    matrix-set document whose matrices are all diagonal (``check``'s input)."""
    if isinstance(doc, dict) and "spectra" not in doc:
        if "matrices" not in doc:
            raise ConfigError("input is neither a spectra file nor a matrix-set file")
        return _stacks_from_matrix_set(doc)
    m = _count(doc, "m")
    rows = []
    for i, entry in enumerate(_list(doc, "spectra")):
        path = f"spectra[{i}]"
        kind = _kind_at(entry, path)
        diag = _vector_from_pairs(_field(entry, "diag", path), f"{path}.diag")
        if diag.size != m:
            raise ConfigError(f"{path}.diag has length {diag.size}, m = {m}")
        rows.append((kind, diag))
    return (*stacks_from_rows(rows, m), m)


def _stacks_from_matrix_set(doc: dict):
    items = matrix_set_from_dict(doc)
    rows = []
    for t in items:
        diag = np.diag(t.matrix)
        if fro_exceeds(t.matrix - np.diag(diag), t.matrix, TAU_SYM):
            raise ConfigError(
                "matrix-set input to check must hold diagonal matrices "
                "(ground-truth spectra); run solve first for estimated sets"
            )
        rows.append((t.kind, diag.real if t.kind is CongruenceKind.HERMITIAN else diag))
    m = items[0].m
    return (*stacks_from_rows(rows, m), m)


# ---------------------------------------------------------------------------
# signals


def signal_to_dict(block) -> dict:
    return {
        "m": int(block.m),
        "T": int(block.T),
        "channels": [_pairs(row) for row in block.data],
    }


def signal_from_dict(doc: dict):
    from .statistics import SignalBlock, _handover

    m = _count(doc, "m")
    t = _count(doc, "T")
    channels = _list(doc, "channels")
    if len(channels) != m:
        raise ConfigError(f"channels has {len(channels)} entries, m = {m}")
    rows = []
    for i, ch in enumerate(channels):
        v = _vector_from_pairs(ch, f"channels[{i}]")
        if v.size != t:
            raise ConfigError(f"channels[{i}] has length {v.size}, T = {t}")
        rows.append(v)
    return SignalBlock(_handover(np.vstack(rows)))


# ---------------------------------------------------------------------------
# reports and solutions


def uniqueness_report_to_dict(rep: UniquenessReport) -> dict:
    doc = {
        "verdict": rep.verdict,
        "rule": rep.rule_fired,
        "rho_transpose": None if rep.rho_transpose is None else float(rep.rho_transpose),
        "rho_hermitian": None if rep.rho_hermitian is None else float(rep.rho_hermitian),
        "pair": None
        if rep.violating_pair is None
        else [int(rep.violating_pair[0]) + 1, int(rep.violating_pair[1]) + 1],
    }
    if rep.witness is not None:
        doc["witness"] = {
            "m": int(rep.witness.m),
            "entries": _pairs(rep.witness.matrix),
        }
        doc["witness_residual"] = float(rep.witness_residual)
    else:
        doc["witness"] = None
    return doc


def solution_to_dict(res: PutResult, method: str, digest: Optional[str]) -> dict:
    """Solution document of ``solvers.solve_pair``; a gevd solve writes null
    for the gap, the Takagi singular values and the identity residual."""
    return {
        "method": method,
        "m": int(res.x.m),
        "x": _pairs(res.x.matrix),
        "lambda": _pairs(res.lam),
        "eig_gap": float(res.eig_gap) if res.eig_gap is not None and np.isfinite(res.eig_gap) else None,
        "takagi_sigma": None if res.takagi is None else [float(s) for s in res.takagi.sigma],
        "residual_identity": None if res.residual_identity is None else float(res.residual_identity),
        "residual_offdiag": float(res.residual_offdiag),
        "input_digest": digest,
    }


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# experiment configs


_SOURCE_FIELDS = ("power", "circularity", "coefficient", "variance_profile")


def _source_from_dict(entry, path: str) -> SourceSpec:
    kwargs = {"kind": _field(entry, "kind", path)}
    _known(entry, ("kind", *_SOURCE_FIELDS), path)
    for key in _SOURCE_FIELDS:
        if entry.get(key) is not None:  # null means the default
            kwargs[key] = _list(entry, key, path) if key == "variance_profile" else entry[key]
    try:
        return SourceSpec(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _statistic_from_dict(entry, path: str, m: int):
    """One recipe entry with a slice's 1-based ``axes`` and ``fixed`` made
    0-based; ``simulation._check_statistic`` checks the entry."""
    if not isinstance(entry, dict) or "pattern" not in entry:
        return entry
    try:
        k = len(_as_pattern(entry["pattern"]))
    except ValueError as exc:
        raise ConfigError(f"{path}.pattern: {exc}") from None
    stat = dict(entry)
    for key, high in (("axes", k), ("fixed", m)):
        if key in entry:
            value = _list(entry, key, path)
            stat[key] = tuple(
                _check_count(v, f"{path}.{key}[{i}]", 1, high) - 1 for i, v in enumerate(value)
            )
    return stat


_CONFIG_NUMBERS = ("margin", "cond_cap", "noise_snr_db", "equiv_tol")
_CONFIG_FIELDS = ("sources", "T", "seed", "statistics", "solver", "trials", *_CONFIG_NUMBERS)


def config_from_dict(doc: dict, seed: Optional[int] = None) -> ExperimentConfig:
    """Decode an experiment config; ``seed``, when given, replaces its seed.

    Only objects, lists and unknown top-level and source fields are checked
    here; ``ExperimentConfig`` and ``SourceSpec`` check the values.  Every
    malformed field raises ConfigError naming its JSON path.
    """
    entries = _list(doc, "sources")
    _known(doc, _CONFIG_FIELDS)
    sources = tuple(_source_from_dict(s, f"sources[{i}]") for i, s in enumerate(entries))
    statistics = tuple(
        _statistic_from_dict(s, f"statistics[{i}]", len(sources))
        for i, s in enumerate(_list(doc, "statistics"))
    )
    return ExperimentConfig(
        sources=sources,
        T=_field(doc, "T"),
        seed=_field(doc, "seed") if seed is None else seed,
        statistics=statistics,
        solver=doc.get("solver", "put"),
        trials=doc.get("trials", 1),
        # an absent or null number field takes ExperimentConfig's default
        **{key: doc[key] for key in _CONFIG_NUMBERS if doc.get(key) is not None},
    )
