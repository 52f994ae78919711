"""JSON file formats for matrix sets, spectra, signals, reports, and configs.

Complex scalars are encoded as [re, im] pairs; matrix entries are row-major.
Writers emit Python repr floats (shortest exact round-trip form), so a
write -> read -> write cycle is byte identical.  Channel and tensor-slot
indices are 1-based at the file surface and 0-based inside the library;
time offsets and window starts are plain 0-based sample indices.
"""

from __future__ import annotations

import hashlib
import json
from typing import Optional, Sequence

import numpy as np

from .core import CongruenceKind, DiagonalStack, GLElement, TaggedMatrix
from .errors import ConfigError
from .simulation import ExperimentConfig, SourceSpec
from .solvers import PutResult
from .uniqueness import UniquenessReport


def write_json(obj, path=None) -> str:
    text = json.dumps(obj, indent=2) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _pair(z) -> list:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _pairs_from_matrix(mat: np.ndarray) -> list:
    return [_pair(z) for z in np.asarray(mat).ravel()]


def _matrix_from_pairs(pairs, rows: int, cols: int) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.shape != (rows * cols, 2):
        raise ConfigError(
            f"expected {rows * cols} [re, im] entries, got shape {arr.shape}"
        )
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(rows, cols)


def _vector_from_pairs(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ConfigError("expected a list of [re, im] pairs")
    return arr[:, 0] + 1j * arr[:, 1]


def _field(entry, key: str, path: str):
    """``entry[key]``, or a ConfigError naming the JSON path when it is absent."""
    if not isinstance(entry, dict):
        raise ConfigError(f"{path} must be an object")
    if key not in entry:
        raise ConfigError(f"{path}.{key} is missing")
    return entry[key]


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
            {"kind": t.kind.value, "entries": _pairs_from_matrix(t.matrix)}
            for t in items
        ],
    }
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def matrix_set_from_dict(doc: dict) -> list:
    try:
        m = int(doc["m"])
        raw = doc["matrices"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed matrix-set document: missing {exc}") from exc
    out = []
    for i, entry in enumerate(raw):
        kind = _kind_at(entry, f"matrices[{i}]")
        entries = _field(entry, "entries", f"matrices[{i}]")
        out.append(TaggedMatrix(_matrix_from_pairs(entries, m, m), kind))
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
            entries.append({"kind": stack.kind.value, "diag": [_pair(z) for z in row]})
    if m is None:
        raise ConfigError("no spectra to write")
    return {"m": int(m), "spectra": entries}


def stacks_from_dict(doc: dict):
    try:
        m = int(doc["m"])
        raw = doc["spectra"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed spectra document: missing {exc}") from exc
    sym_rows, herm_rows = [], []
    for i, entry in enumerate(raw):
        kind = _kind_at(entry, f"spectra[{i}]")
        diag = _vector_from_pairs(_field(entry, "diag", f"spectra[{i}]"))
        if diag.size != m:
            raise ConfigError(f"diagonal length {diag.size} != m = {m}")
        (sym_rows if kind is CongruenceKind.TRANSPOSE else herm_rows).append(diag)
    sym = (
        DiagonalStack(CongruenceKind.TRANSPOSE, np.vstack(sym_rows))
        if sym_rows
        else None
    )
    herm = (
        DiagonalStack(CongruenceKind.HERMITIAN, np.vstack(herm_rows))
        if herm_rows
        else None
    )
    return sym, herm, m


# ---------------------------------------------------------------------------
# signals


def signal_to_dict(block, truth: Optional[dict] = None) -> dict:
    doc = {
        "m": int(block.m),
        "T": int(block.T),
        "channels": [[_pair(z) for z in row] for row in block.data],
    }
    if truth is not None:
        doc["truth"] = truth
    return doc


def signal_from_dict(doc: dict):
    from .statistics import SignalBlock

    try:
        m = int(doc["m"])
        t = int(doc["T"])
        channels = doc["channels"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed signal document: missing {exc}") from exc
    if len(channels) != m:
        raise ConfigError(f"channel count {len(channels)} != m = {m}")
    rows = []
    for ch in channels:
        v = _vector_from_pairs(ch)
        if v.size != t:
            raise ConfigError(f"channel length {v.size} != T = {t}")
        rows.append(v)
    return SignalBlock(np.vstack(rows))


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
            "entries": _pairs_from_matrix(rep.witness.matrix),
        }
        doc["witness_residual"] = float(rep.witness_residual)
    else:
        doc["witness"] = None
    return doc


def gl_from_dict(doc: dict) -> GLElement:
    m = int(doc["m"])
    return GLElement(_matrix_from_pairs(doc["entries"], m, m))


def put_result_to_dict(res: PutResult, method: str, digest: Optional[str]) -> dict:
    m = res.x.m
    return {
        "method": method,
        "m": int(m),
        "x": _pairs_from_matrix(res.x.matrix),
        "lambda": [_pair(z) for z in res.lam],
        "eig_gap": float(res.eig_gap) if np.isfinite(res.eig_gap) else None,
        "takagi_sigma": [float(s) for s in res.takagi.sigma],
        "residual_identity": float(res.residual_identity),
        "residual_offdiag": float(res.residual_offdiag),
        "input_digest": digest,
    }


def gevd_result_to_dict(x: GLElement, lam, residual: float, method: str, digest) -> dict:
    return {
        "method": method,
        "m": int(x.m),
        "x": _pairs_from_matrix(x.matrix),
        "lambda": [_pair(z) for z in lam],
        "eig_gap": None,
        "takagi_sigma": None,
        "residual_identity": None,
        "residual_offdiag": float(residual),
        "input_digest": digest,
    }


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# experiment configs


def _source_from_dict(doc: dict) -> SourceSpec:
    known = {"kind", "power", "circularity", "coefficient", "variance_profile"}
    extra = set(doc) - known
    if extra:
        raise ConfigError(f"unknown source fields: {sorted(extra)}")
    kwargs = dict(doc)
    if "variance_profile" in kwargs and kwargs["variance_profile"] is not None:
        kwargs["variance_profile"] = tuple(kwargs["variance_profile"])
    return SourceSpec(**kwargs)


def _statistic_from_dict(doc: dict) -> dict:
    stat = dict(doc)
    name = stat.get("statistic")
    if name in ("cumulant_slice", "lagged_cumulant_slice"):
        try:
            stat["axes"] = tuple(int(a) - 1 for a in stat["axes"])
        except KeyError as exc:
            raise ConfigError("cumulant slices need 'axes'") from exc
        stat["fixed"] = tuple(int(c) - 1 for c in stat.get("fixed", ()))
        if name == "lagged_cumulant_slice":
            stat["offsets"] = tuple(int(t) for t in stat.get("offsets", ()))
    if name == "windowed_covariance":
        stat["windows"] = [tuple(int(v) for v in w) for w in stat.get("windows", ())]
    return stat


def config_from_dict(doc: dict) -> ExperimentConfig:
    try:
        sources = tuple(_source_from_dict(s) for s in doc["sources"])
        statistics = tuple(_statistic_from_dict(s) for s in doc["statistics"])
        return ExperimentConfig(
            sources=sources,
            T=int(doc["T"]),
            seed=int(doc["seed"]),
            statistics=statistics,
            solver=doc.get("solver", "put"),
            trials=int(doc.get("trials", 1)),
            margin=float(doc.get("margin", 1e-3)),
            cond_cap=float(doc.get("cond_cap", 100.0)),
            noise_snr_db=doc.get("noise_snr_db"),
            equiv_tol=float(doc.get("equiv_tol", 1e-2)),
        )
    except KeyError as exc:
        raise ConfigError(f"config is missing required field {exc}") from exc
