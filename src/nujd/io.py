"""JSON file formats for matrix sets, spectra, signals, reports, and configs.

Complex scalars are encoded as [re, im] pairs; matrix entries are row-major.
The ``*_to_dict`` functions hold each list of pairs as an (n, 2) float64
array, a view of the complex data (``_pairs``).  ``read_json`` returns what
``json.load`` returns, except that each list of float pairs in a top-level
object's ``"channels"`` is such an array.  The ``*_from_dict`` functions
take either form and view it back as complex (``_complex``), bit for bit,
signed zeros included; a signal's channels are copied once, into its
block.  Writers emit exactly the text of ``json.dumps(doc, indent=2)``
with each array as its ``.tolist()``, so a write -> read -> write cycle,
and one through the ``*_from_dict`` and ``*_to_dict`` functions, is byte
identical; a write to a file streams a pair array's text one slice of
pairs at a time.  ``read_json``
reads a file through a window of ``_WINDOW`` characters and scans each
value of a top-level object with the stdlib C scanner; a ``"channels"``
list is scanned in pieces that end at a ``],``, each stacked at once, so
neither the file's text nor a channel's Python lists are held whole.
Decoding runs with the cyclic GC paused: documents are trees, so its
passes would find nothing to collect.  Channel and tensor-slot indices are
1-based at the file surface and 0-based inside the library; time offsets
and window starts are plain 0-based sample indices.  A recipe entry,
whether from a config file or from ``nujd estimate``'s flags, is decoded
by ``_statistic_from_dict``, which only makes a slice's 1-based ``axes``
and ``fixed`` 0-based, and then checked once, by
``simulation._check_statistic`` (which ``ExperimentConfig`` runs).  Every
other config value is checked by ``ExperimentConfig`` or ``SourceSpec``
too.
"""

from __future__ import annotations

import gc
import hashlib
import json
from contextlib import contextmanager
from itertools import chain
from json.decoder import WHITESPACE, scanstring
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


# Characters of a file's text that read_json reads at a time.
_WINDOW = 1 << 20

_scan_value = json.JSONDecoder().scan_once
_AFTER_VALUE = frozenset(' \t\n\r,:]}')


def _invalid(s: str, idx: int) -> json.JSONDecodeError:
    # never shown: read_json then raises json.load's own error
    return json.JSONDecodeError("invalid JSON", s, idx)


class _TextWindow:
    """The text of an open file, read ``_WINDOW`` characters at a time and
    decoded by the stdlib scanner.  ``s`` holds the text from the value
    being decoded on; each method takes and returns an index into ``s``."""

    def __init__(self, fh):
        self.fh, self.s = fh, ""

    def more(self, n: int = 0) -> bool:
        """Append the next ``n`` (by default ``_WINDOW``) characters; false
        at the end of the file."""
        text = self.fh.read(n or _WINDOW)
        self.s += text
        return bool(text)

    def drop(self, idx: int) -> int:
        """Drop the text before ``idx``, which becomes 0."""
        self.s = self.s[idx:]
        return 0

    def ws(self, idx: int) -> int:
        """The first index at or after ``idx`` that is not JSON whitespace."""
        while True:
            idx = WHITESPACE.match(self.s, idx).end()
            if idx < len(self.s) or not self.more():
                return idx

    def scan(self, scan, idx: int):
        """``scan(s, idx)`` once the value ends strictly inside the window
        at a character that can follow a JSON value (a number cut at "1."
        or "1e" scans as "1"); the text after ``idx`` doubles until it does
        or the file ends."""
        while True:
            try:
                value, end = scan(self.s, idx)
            except (StopIteration, json.JSONDecodeError):
                end = None
            if end is not None and end < len(self.s) and self.s[end] in _AFTER_VALUE:
                return value, end
            if not self.more(max(_WINDOW, len(self.s) - idx)):
                if end is None:
                    raise _invalid(self.s, idx)
                return value, end

    def value(self, idx: int):
        return self.scan(_scan_value, self.drop(idx))

    def items(self, idx: int, close: str, item):
        """The entries that ``item(idx) -> (entry, end)`` gives for the
        object or list whose opening bracket ends at ``idx``, and the index
        past its ``close``."""
        out = []
        idx = self.ws(idx)
        if not self.s.startswith(close, idx):
            while True:
                entry, idx = item(idx)
                out.append(entry)
                idx = self.ws(idx)
                if not self.s.startswith(",", idx):
                    break
                idx = self.ws(idx + 1)
            if not self.s.startswith(close, idx):
                raise _invalid(self.s, idx)
        return out, idx + 1

    def document(self):
        """The file's value; only a top-level object is walked here, any
        other value is scanned whole."""
        idx = self.ws(0)
        if self.s.startswith("{", idx):
            pairs, idx = self.items(idx + 1, "}", self.member)
            doc = dict(pairs)
        else:
            self.s += self.fh.read()
            doc, idx = self.scan(_scan_value, idx)
        if self.ws(idx) < len(self.s):
            raise _invalid(self.s, idx)
        return doc

    def member(self, idx: int):
        """One ``"key": value`` pair of the top-level object."""
        if not self.s.startswith('"', idx):
            raise _invalid(self.s, idx)
        key, idx = self.scan(scanstring, idx + 1)
        idx = self.ws(idx)
        if not self.s.startswith(":", idx):
            raise _invalid(self.s, idx)
        idx = self.ws(idx + 1)
        if key == "channels" and self.s.startswith("[", idx):
            value, idx = self.items(idx + 1, "]", self.channel)
        else:
            value, idx = self.value(idx)
        return (key, value), idx

    def channel(self, idx: int):
        """One entry of a top-level ``"channels"`` list.  A list is decoded
        in pieces, each stacked at once while all pieces so far are float
        pairs; a piece of anything else makes the channel the list json
        gives, with the stacked pieces turned back into lists."""
        if not self.s.startswith("[", idx):
            return self.value(idx)
        arrays, entries, closed = [], None, False
        idx += 1
        while not closed:
            self.drop(idx)
            piece, idx, closed = self.piece()
            if not piece and (arrays or entries):
                raise _invalid(self.s, idx)  # a "," right before the "]"
            if entries is None and piece and _is_pair_list(piece, _FLOAT_TYPE):
                arrays.append(_stack(piece))
            elif entries is None:
                entries = [pair for a in arrays for pair in a.tolist()] + piece
            else:
                entries += piece
            del piece  # the next piece's lists are built without this one's
        return np.concatenate(arrays) if entries is None else entries, idx

    def piece(self):
        """The entries of a list from the start of the window, just after
        its "[" or a "," between entries, up to a cut after the last "],"
        in the first ``_WINDOW`` characters, as one C-scanner call reads
        ``"[" + text + "]"``; the index past them; and whether the list
        closed inside the piece.  A cut that does not scan (inside a
        string or a nested list) moves to a later "]," in a window twice
        the size; past the last one, the piece is the rest of the file."""
        size, tried = _WINDOW, 0
        while True:
            while len(self.s) <= size and self.more(size + 1 - len(self.s)):
                pass
            cut = self.s.rfind("],", 0, size) + 1
            if cut <= tried:
                if len(self.s) > size:
                    size *= 2
                    continue
                if tried == len(self.s):
                    raise _invalid(self.s, 0)
                cut = len(self.s)
            try:
                entries, end = _scan_value("[" + self.s[:cut] + "]", 0)
            except (StopIteration, json.JSONDecodeError):
                tried = cut
                continue
            if end < cut + 2:  # the scan stopped before the appended "]"
                return entries, end - 1, True
            if cut == len(self.s):
                raise _invalid(self.s, cut)
            return entries, cut + 1, False


def read_json(path):
    """``json.load`` of the file at ``path`` with the cyclic GC paused, each
    list of [re, im] float pairs in a top-level object's ``"channels"`` an
    (n, 2) float array.  The text is read through a window of about
    ``_WINDOW`` characters, so the file's text is never held whole (but for
    a top-level value that is not an object).  Invalid text is read once
    more by ``json.load``, so that the error raised is json's own."""
    with _no_gc():
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return _TextWindow(fh).document()
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError):
            with open(path, "r", encoding="utf-8") as fh:
                json.load(fh)
            raise


def _pairs(values) -> np.ndarray:
    """The (n, 2) float view of a complex array's entries as [re, im] pairs,
    in row-major order; a contiguous complex128 array is not copied."""
    return np.ascontiguousarray(values, dtype=np.complex128).reshape(-1).view(np.float64).reshape(-1, 2)


def _complex(pairs, path: str) -> np.ndarray:
    """The complex vector of [re, im] pairs of JSON numbers: a list of them,
    or the (n, 2) float array that ``read_json`` and ``_pairs`` give, viewed
    bit for bit (copied only when its rows are not contiguous)."""
    if type(pairs) is list and (not pairs or _is_pair_list(pairs)):
        try:
            pairs = _stack(pairs)
        except OverflowError:  # an integer beyond the float range
            pass
    if not _is_pair_array(pairs):
        raise ConfigError(f"{path} must hold numeric [re, im] pairs")
    return np.ascontiguousarray(pairs).view(np.complex128).reshape(-1)


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
        entries = _complex(_field(entry, "entries", path), f"{path}.entries")
        if entries.size != m * m:
            raise ConfigError(f"{path}.entries: expected {m * m} [re, im] entries, got {entries.size}")
        out.append(TaggedMatrix(entries.reshape(m, m), kind))
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
        diag = _complex(_field(entry, "diag", path), f"{path}.diag")
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
        v = _complex(ch, f"channels[{i}]")
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
