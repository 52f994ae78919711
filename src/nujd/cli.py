"""Command-line surface for file-based pipelines.

Exit codes: 0 success (or Unique verdict), 1 generic error, 2 usage or
incompatible input, 3 NotUnique verdict, 4 numeric solver failure.

``estimate`` turns its flags into config-file recipe entries, so the file
decoder (``io``) and the one entry check (``simulation``) apply to them.
"""

from __future__ import annotations

import json
import sys
import warnings
from contextlib import contextmanager

import click

from .core import SOLVE_TOL, TAU_RHO, require_tol
from .errors import ConfigError, NujdError, NumericFailure
from . import io as nio
from .simulation import _check_statistic, estimate_statistic, run_experiment
from .solvers import solve_pair
from .uniqueness import identifiability_master


def _load_json(path):
    try:
        return nio.read_json(path)
    except json.JSONDecodeError as exc:
        _fail(1, f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}")
    except UnicodeDecodeError as exc:
        _fail(1, f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})")
    except RecursionError:
        _fail(1, f"{path}: JSON nested too deeply")
    except OSError as exc:
        _fail(1, str(exc))


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _write_json(obj, out_path, echo: bool = False) -> None:
    """Write the document to ``out_path`` when given, streamed in bounded
    pieces, and print it when no path is given or ``echo`` is set; exit 1
    naming a path that cannot be written.  An echoed document is encoded
    once, as one string, for both."""
    try:
        if out_path is not None and not echo:
            nio.write_json(obj, out_path)
            return
        text = nio.write_json(obj)
        if out_path is not None:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        _fail(1, str(exc))
    click.echo(text, nl=False)


@contextmanager
def _warnings_to_stderr():
    """Print each warning raised in the block as one ``warning:`` line on stderr."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            yield
        finally:
            for w in caught:
                click.echo(f"warning: {w.message}", err=True)


@click.group()
def main():
    """Joint-diagonalization toolbox: certify, solve, estimate, simulate."""


@main.command("check")
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--tol", type=float, default=TAU_RHO, show_default=True, help="certification tolerance for exact spectra")
@click.option("--margin", type=float, default=None, help="robustness margin for estimated spectra (overrides --tol)")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None, help="also write the report here")
def cmd_check(input_path, tol, margin, out_path):
    """Identifiability verdict for a spectra file (or diagonal matrix set).

    Prints the uniqueness report as JSON; exit code 0 means Unique, 3 means
    NotUnique (witness embedded in the report).
    """
    doc = _load_json(input_path)
    use_tol = margin if margin is not None else tol
    try:
        require_tol(use_tol, "--tol" if margin is None else "--margin", error=ConfigError)
        sym, herm, _ = nio.stacks_from_dict(doc)
        report = identifiability_master(sym, herm, use_tol)
    except NujdError as exc:
        _fail(1, str(exc))
    _write_json(nio.uniqueness_report_to_dict(report), out_path, echo=True)
    sys.exit(0 if report.unique else 3)


@main.command("solve")
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(["put", "sut", "gevd"]), default="put", show_default=True)
@click.option("--tol", type=float, default=SOLVE_TOL, show_default=True, help="residual bound for exit code 0")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def cmd_solve(input_path, method, tol, out_path):
    """Solve a two-matrix set, writing the demixer, spectrum, and residuals.

    Exit 0 when the joint-diagonality residual meets --tol, 1 when --tol is
    not in [0, 1), 2 for sets the method cannot consume, 4 for named numeric
    failures or a residual above --tol.
    """
    doc = _load_json(input_path)
    try:
        require_tol(tol, "--tol", error=ConfigError)
        items = nio.matrix_set_from_dict(doc)
    except NujdError as exc:
        _fail(1, str(exc))
    digest = nio.file_digest(input_path)
    try:
        with _warnings_to_stderr():
            res = solve_pair(items, method)
    except ConfigError as exc:
        _fail(2, str(exc))
    except NumericFailure as exc:
        _fail(4, f"{type(exc).__name__}: {exc}")
    except NujdError as exc:
        _fail(1, str(exc))
    ok = res.residual_offdiag <= tol and (
        res.residual_identity is None or res.residual_identity / res.x.m <= tol
    )
    out = nio.solution_to_dict(res, method, digest)
    out["tolerance_met"] = bool(ok)
    _write_json(out, out_path)
    sys.exit(0 if ok else 4)


@main.command("estimate")
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--cov", is_flag=True, help="covariance matrix")
@click.option("--pseudocov", is_flag=True, help="pseudo-covariance matrix")
@click.option("--lag", "lags", type=int, multiple=True, help="lag-N pair: autocorrelation Hermitian part + pseudo-autocorrelation (repeatable)")
@click.option("--window", "windows", type=str, multiple=True, help="START:LEN windowed covariance (repeatable)")
@click.option("--cum4", "cum4", type=str, nargs=3, multiple=True, metavar="PATTERN AXES FIXED", help="fourth-order slice, e.g. 0000 3,4 1,1 (axes/channels 1-based)")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def cmd_estimate(input_path, cov, pseudocov, lags, windows, cum4, out_path):
    """Estimate matrices from a signal file into a matrix-set file.

    Every flag's recipe entry is checked against the signal, as a config
    file's entries are, before any is estimated; exit 2 names a rejected flag.
    """
    if not (cov or pseudocov or lags or windows or cum4):
        _fail(2, "empty recipe: pass at least one of --cov --pseudocov --lag --window --cum4")
    # the document's pair lists die in the GC pause that read them: no collection scans them
    with nio._no_gc():
        doc = _load_json(input_path)
        try:
            block = nio.signal_from_dict(doc)
        except NujdError as exc:
            _fail(1, str(exc))
        del doc
    recipe = _recipe(cov, pseudocov, lags, windows, cum4)
    stats = []
    for flag, entry in recipe:
        try:
            stat = nio._statistic_from_dict(entry, flag, block.m)
            _check_statistic(stat, flag, block.m, block.T)
        except ConfigError as exc:
            _fail(2, str(exc))
        stats.append(stat)
    items = []
    try:
        with _warnings_to_stderr():
            for (_, entry), stat in zip(recipe, stats):
                mats = estimate_statistic(stat, block)
                items.extend(mats)
                if "pattern" in entry:
                    entry["kind"] = mats[0].kind.value
        provenance = {"source": "estimate", "recipe": [entry for _, entry in recipe]}
        out = nio.matrix_set_to_dict(items, provenance=provenance)
    except NujdError as exc:
        _fail(1, str(exc))
    _write_json(out, out_path)
    sys.exit(0)


def _recipe(cov, pseudocov, lags, windows, cum4) -> list:
    """(flag, config-file recipe entry) for each of ``estimate``'s flags, in
    output order, with slice indices 1-based as typed.  Only the flag syntax
    is checked here: START:LEN, comma-separated integers, a 4-bit pattern."""
    recipe = []
    if cov:
        recipe.append(("--cov", {"statistic": "covariance"}))
    if pseudocov:
        recipe.append(("--pseudocov", {"statistic": "pseudo_covariance"}))
    for lag in lags:
        recipe.append((f"--lag {lag}", {"statistic": "autocorrelation", "lag": lag, "part": "hermitian"}))
        recipe.append((f"--lag {lag}", {"statistic": "pseudo_autocorrelation", "lag": lag}))
    if windows:
        spans = [_flag_ints(spec, ":", "--window", "START:LEN") for spec in windows]
        recipe.append(("--window", {"statistic": "windowed_covariance", "windows": spans}))
    for pattern, axes, fixed in cum4:
        if len(pattern) != 4:
            _fail(2, f"bad --cum4 pattern {pattern!r}, expected 4 bits")
        entry = {
            "statistic": "cumulant_slice",
            "pattern": pattern,
            "axes": _flag_ints(axes, ",", "--cum4 axes", "comma-separated integers"),
            "fixed": _flag_ints(fixed, ",", "--cum4 fixed", "comma-separated integers"),
        }
        recipe.append((f"--cum4 ({pattern} {axes} {fixed})", entry))
    return recipe


def _flag_ints(text: str, sep: str, flag: str, form: str) -> list:
    """The ``sep``-separated integers of a flag value, or exit 2 naming the flag."""
    try:
        return [int(v) for v in text.split(sep)] if text else []
    except ValueError:
        _fail(2, f"bad {flag} {text!r}, expected {form}")


@main.command("simulate")
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, default=None, help="override the config seed")
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
def cmd_simulate(input_path, seed, out_path):
    """Run a seeded batch experiment from a config file into a report file."""
    doc = _load_json(input_path)
    try:
        config = nio.config_from_dict(doc, seed)
        report = run_experiment(config)
    except NujdError as exc:
        _fail(1, str(exc))
    except MemoryError:  # a T that one array holds but the memory does not
        _fail(1, f"T = {config.T} needs more memory than is available for {len(config.sources)} sources")
    _write_json(report, out_path)
    sys.exit(0)


if __name__ == "__main__":
    main()
