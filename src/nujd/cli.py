"""Command-line surface for file-based pipelines.

Exit codes: 0 success (or Unique verdict), 1 generic error, 2 usage or
incompatible input, 3 NotUnique verdict, 4 numeric solver failure.
"""

from __future__ import annotations

import json
import sys
import warnings

import click

from .core import TAU_RHO, require_tol
from .errors import ConfigError, NujdError, NumericFailure
from . import io as nio
from .simulation import estimate_statistic, run_experiment
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
    text = nio.write_json(nio.uniqueness_report_to_dict(report), out_path)
    click.echo(text, nl=False)
    sys.exit(0 if report.unique else 3)


@main.command("solve")
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--method", type=click.Choice(["put", "sut", "gevd"]), default="put", show_default=True)
@click.option("--tol", type=float, default=1e-8, show_default=True, help="residual bound for exit code 0")
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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
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
    text = nio.write_json(out, out_path)
    if out_path is None:
        click.echo(text, nl=False)
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
    """Estimate matrices from a signal file into a matrix-set file."""
    if not (cov or pseudocov or lags or windows or cum4):
        _fail(2, "empty recipe: pass at least one of --cov --pseudocov --lag --window --cum4")
    doc = _load_json(input_path)
    try:
        block = nio.signal_from_dict(doc)
        items = []
        recipe = []
        for stat in _recipe(cov, pseudocov, lags, windows, cum4):
            mats = estimate_statistic(stat, block)
            items.extend(mats)
            if stat["statistic"] == "cumulant_slice":  # 1-based at the file surface
                stat = dict(stat, axes=[a + 1 for a in stat["axes"]],
                            fixed=[c + 1 for c in stat["fixed"]], kind=mats[0].kind.value)
            recipe.append(stat)
        out = nio.matrix_set_to_dict(items, provenance={"source": "estimate", "recipe": recipe})
    except ValueError as exc:
        _fail(2, str(exc))
    except NujdError as exc:
        _fail(1, str(exc))
    text = nio.write_json(out, out_path)
    if out_path is None:
        click.echo(text, nl=False)
    sys.exit(0)


def _recipe(cov, pseudocov, lags, windows, cum4):
    """Yield the 0-based recipe entries of ``estimate``'s flags in output order,
    parsing each flag only when its entry is reached."""
    if cov:
        yield {"statistic": "covariance"}
    if pseudocov:
        yield {"statistic": "pseudo_covariance"}
    for lag in lags:
        yield {"statistic": "autocorrelation", "lag": lag, "part": "hermitian"}
        yield {"statistic": "pseudo_autocorrelation", "lag": lag}
    parsed_windows = []
    for spec in windows:
        try:
            start, length = (int(v) for v in spec.split(":"))
        except ValueError:
            _fail(2, f"bad --window {spec!r}, expected START:LEN")
        parsed_windows.append((start, length))
    if parsed_windows:
        yield {"statistic": "windowed_covariance", "windows": parsed_windows}
    for pattern, axes_s, fixed_s in cum4:
        if len(pattern) != 4 or set(pattern) - {"0", "1"}:
            _fail(2, f"bad --cum4 pattern {pattern!r}")
        try:
            axes = tuple(int(a) - 1 for a in axes_s.split(","))
            fixed = tuple(int(c) - 1 for c in fixed_s.split(",")) if fixed_s else ()
        except ValueError:
            _fail(2, "bad --cum4 axes/fixed, expected comma-separated integers")
        yield {"statistic": "cumulant_slice", "pattern": pattern, "axes": axes, "fixed": fixed}


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
    except ValueError as exc:
        _fail(2, str(exc))
    except NujdError as exc:
        _fail(1, str(exc))
    text = nio.write_json(report, out_path)
    if out_path is None:
        click.echo(text, nl=False)
    sys.exit(0)


if __name__ == "__main__":
    main()
