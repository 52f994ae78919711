"""JSON file formats for matrix sets, spectra, signals, reports, and configs.

Complex scalars are encoded as [re, im] pairs; matrix entries are row-major.
Writers emit exactly the text of ``json.dumps(doc, indent=2)`` with Python
repr floats (shortest exact round-trip form), so a write -> read -> write
cycle is byte identical.  Pair lists are encoded and decoded per array, not
per value, and with the cyclic GC paused: documents are trees, so its passes
over them would find nothing to collect.  Their text is written per slice of
pairs, and a write to a file streams it slice by slice.  Channel and tensor-slot
indices are 1-based at the file surface and 0-based inside the library;
time offsets and window starts are plain 0-based sample indices.  A recipe
entry, whether from a config file or from ``nujd estimate``'s flags, is
decoded by ``_statistic_from_dict``, which only makes a slice's 1-based
``axes`` and ``fixed`` 0-based, and then checked once, by
``simulation._check_statistic`` (which ``ExperimentConfig`` runs).  Every
other config value is checked by ``ExperimentConfig`` or ``SourceSpec`` too.
"""

from __future__ import annotations

import gc
import hashlib
import json
from contextlib import contextmanager
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .core import TAU_SYM, CongruenceKind, DiagonalStack, TaggedMatrix, stacks_from_rows
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


def _is_pair_list(value) -> bool:
    """A non-empty list of 2-lists of JSON numbers (int or float, never bool)."""
    return (
        set(map(type, value)) == {list}
        and set(map(len, value)) == {2}
        and set(map(type, chain.from_iterable(value))) <= _NUMBER_TYPES
    )


# Pairs per C-encoder call: a write holds one slice's text at a time.
_PAIR_SLICE = 2048


def _encode(value, indent: str):
    """The text of ``json.dumps(value, indent=2)``, for a value placed at
    ``indent``, as a sequence of pieces."""
    inner = indent + "  "
    if type(value) is list and value and _is_pair_list(value):
        # One C-encoder call per slice; its "[[a, b], [c, d]]" text holds
        # only numbers, brackets, commas and spaces, so two replaces indent it.
        leaf = inner + "  "
        between = f"\n{inner}],\n{inner}[\n{leaf}"
        yield f"[\n{inner}[\n{leaf}"
        for start in range(0, len(value), _PAIR_SLICE):
            if start:
                yield between
            yield (
                json.dumps(value[start:start + _PAIR_SLICE])[2:-2]
                .replace("], [", between)
                .replace(", ", f",\n{leaf}")
            )
        yield f"\n{inner}]\n{indent}]"
    elif type(value) is list and value:
        opening = "["
        for v in value:
            yield f"{opening}\n{inner}"
            opening = ","
            yield from _encode(v, inner)
        yield f"\n{indent}]"
    elif type(value) is dict and value and all(type(k) is str for k in value):
        opening = "{"
        for k, v in value.items():
            yield f"{opening}\n{inner}{json.dumps(k)}: "
            opening = ","
            yield from _encode(v, inner)
        yield f"\n{indent}}}"
    else:
        # JSON text never holds a raw newline inside a string.
        yield json.dumps(value, indent=2).replace("\n", "\n" + indent)


def write_json(obj, path=None) -> Optional[str]:
    """``json.dumps(obj, indent=2) + "\\n"``, returned as one string, or written
    to ``path`` piece by piece (returning None), so that a file's text is
    never held whole.  A value that json cannot encode raises its TypeError
    after ``path`` is opened, which then holds the text that precedes it."""
    pieces = chain(_encode(obj, ""), ("\n",))
    if path is None:
        return "".join(pieces)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh, _no_gc():
        return json.load(fh)


def _pairs(values) -> list:
    """[[re, im], ...] for the entries of a complex array, in row-major order."""
    a = np.asarray(values, dtype=np.complex128)
    with _no_gc():
        return np.stack((a.real, a.imag), -1).reshape(-1, 2).tolist()


def _floats(pairs, path: str) -> np.ndarray:
    """An (n, 2) float array from a list of [re, im] pairs of JSON numbers."""
    if type(pairs) is list and (not pairs or _is_pair_list(pairs)):
        try:
            return np.fromiter(chain.from_iterable(pairs), float, 2 * len(pairs)).reshape(-1, 2)
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
    m = _check_count(_field(doc, "m"), "m")
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
    m = _check_count(_field(doc, "m"), "m")
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
        scale = max(float(np.linalg.norm(t.matrix)), np.finfo(float).tiny)
        if float(np.linalg.norm(t.matrix - np.diag(diag))) > TAU_SYM * scale:
            raise ConfigError(
                "matrix-set input to check must hold diagonal matrices "
                "(ground-truth spectra); run solve first for estimated sets"
            )
        rows.append((t.kind, diag.real if t.kind is CongruenceKind.HERMITIAN else diag))
    m = items[0].m
    return (*stacks_from_rows(rows, m), m)


# ---------------------------------------------------------------------------
# signals


def signal_to_dict(block, truth: Optional[dict] = None) -> dict:
    doc = {
        "m": int(block.m),
        "T": int(block.T),
        "channels": [_pairs(row) for row in block.data],
    }
    if truth is not None:
        doc["truth"] = truth
    return doc


def signal_from_dict(doc: dict):
    from .statistics import SignalBlock, _handover

    m = _check_count(_field(doc, "m"), "m")
    t = _check_count(_field(doc, "T"), "T")
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
