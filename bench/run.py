"""Benchmark entry point: one workload, one seed, tracing off or on.

    python3 bench/run.py --workload simulate_sut --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory, as tier-1 does with ``PYTHONPATH=src``.  The last line of standard
output is one JSON object ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the full stamped report, also written to
``.bench_out/``.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
LAYERS = ("cli", "io", "simulation", "statistics", "uniqueness", "solvers", "linalg", "core")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUJD_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("cli_pipeline", "simulate_sut", "simulate_cum4", "certify_solve"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import nujd, nujd.io; "
    "print(time.perf_counter() - t)"
)


def import_program() -> float:
    """Import nujd from ``src/`` and return the seconds it took."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import nujd  # noqa: F401
    import nujd.io  # noqa: F401

    elapsed = time.perf_counter() - t0
    if not Path(nujd.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"nujd was imported from {nujd.__file__}, not from {SRC}")
    return elapsed


def fresh_import_s() -> float:
    """Import time of nujd in a fresh interpreter, as this process saw it first."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def stamp(args, counts) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        out = []
    # Only the checkout's own repository counts, not one that contains it.
    commit = out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None
    digest = hashlib.sha256()
    for f in sorted(SRC.rglob("*.py")):
        digest.update(f.relative_to(SRC).as_posix().encode())
        digest.update(f.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "counts": counts,
    }


def untraced(args, workdir, import_s):
    import workloads

    wl = workloads.make(args.workload, args.seed, str(workdir), str(SRC))
    imports = [import_s] + [fresh_import_s() for _ in range(SETUP_REPEATS - 1)]
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setups.append(time.perf_counter() - t0)
    ops = wl.measure(args.seconds)
    problems = wl.check()
    op_s = statistics.median(ops)
    metrics = {
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "op_s": op_s,
        "peak_rss_mb": wl.peak_rss_mb(),
    }
    alias = {
        "cli_pipeline": ("pipeline_s", op_s),
        "simulate_sut": ("trials_per_s", 1.0 / op_s),
        "simulate_cum4": ("trials_per_s", 1.0 / op_s),
        "certify_solve": ("instances_per_s", 1.0 / op_s),
    }[args.workload]
    detail = {alias[0]: alias[1], "import_s": imports, "setup_repeats_s": setups,
              "op_times_s": ops, **wl.summary}
    return metrics, {args.workload: _counts(wl)}, problems, detail


def traced(args, workdir):
    import workloads
    from spans import Tracer

    tr = Tracer()
    wls = {n: workloads.make(n, args.seed, str(workdir), str(SRC)) for n in workloads.WORKLOADS}
    for name, wl in wls.items():
        tr.workload, tr.group = name, None
        wl.setup(tr)
    # The named workload gets the run's seconds, with an untraced replay of
    # each round for the overhead; the others get one traced round each, so
    # that every run reports every layer.
    tr.workload = args.workload
    overhead = sum(
        wls[args.workload].traced_round(tr, i, True) for i in workloads._until(args.seconds)
    )
    for name, wl in wls.items():
        if name != args.workload:
            tr.workload = name
            wl.traced_round(tr, 0, False)
    problems = [f"{n}: {p}" for n, wl in wls.items() for p in wl.check()]
    metrics = per_layer(tr, wls, overhead)
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
    return metrics, {n: _counts(wl) for n, wl in wls.items()}, problems, {"spans": len(tr.spans)}


def per_layer(tr, wls, overhead_s) -> dict:
    """Per-layer metrics, each from the workload the README's table names for it."""
    from workloads import MS

    cli, sut, cum4, cs = "cli_pipeline", "simulate_sut", "simulate_cum4", "certify_solve"
    out = {"cli.import_s": tr.median_s("cli.import", cli)}
    for c in ("estimate", "solve", "check"):
        out[f"cli.{c}_s"] = tr.per_op_s(f"cli.{c}", cli)
    out["io.signal_read_s"] = tr.median_s("io.signal_read", cli)
    out["io.signal_write_s"] = tr.median_s("io.signal_write", cli)
    out["io.signal_bytes"] = os.path.getsize(wls[cli].signal_path)
    for key, span in (("generate", "generate"), ("mix", "mix"), ("population", "population_stacks")):
        out[f"simulation.{key}_s"] = tr.per_op_s(f"simulation.{span}", sut)
    out["simulation.score_s"] = tr.per_op_s(
        ("simulation.amari_index", "core.GLElement", "core.is_essentially_equivalent"), sut
    )
    out["statistics.estimate_s"] = tr.per_op_s("statistics.estimate_statistic", sut)
    out["statistics.covariance_s"] = tr.per_op_s("statistics.covariance", sut)
    out["statistics.pseudo_covariance_s"] = tr.per_op_s("statistics.pseudo_covariance", sut)
    out["statistics.cumulant_slice_s"] = tr.per_op_s("statistics.cumulant_slice", cum4)
    est = tr.select(("statistics.covariance", "statistics.cumulant_slice"), cum4)
    nbytes = sum(16 * s["args_shape"][0] * s["args_shape"][1] for s in est)
    out["statistics.computed_gb_per_s"] = nbytes / sum(s["end"] - s["start"] for s in est) / 1e9
    master = "uniqueness.identifiability_master"
    out["uniqueness.certify_s"] = tr.per_op_s(master, cs)
    for m in MS:
        out[f"uniqueness.scan_ms.m{m}"] = 1e3 * tr.median_s(master, cs, m=m, kind="scan")
    for m in (MS[0], MS[-1]):
        out[f"uniqueness.not_unique_ms.m{m}"] = 1e3 * tr.median_s(master, cs, m=m, kind="not_unique")
    out["uniqueness.branch_i_ms"] = 1e3 * tr.median_s(master, cs, kind="branch_i")
    out["uniqueness.witnesses"] = sum(1 for s in tr.select(master, cs) if s.get("witness"))
    for m in MS:
        out[f"solvers.put_ms.m{m}"] = 1e3 * tr.median_s("solvers.put", cs, m=m)
    out["solvers.put_s"] = tr.per_op_s("solvers.put", cs)
    out["solvers.sut_s"] = tr.per_op_s("solvers.sut", sut)
    for step in ("takagi", "general_evd", "symmetric_orthogonalize"):
        out[f"linalg.{step}_ms.m{MS[-1]}"] = 1e3 * tr.median_s(f"linalg.{step}", cs, m=MS[-1])
    out["core.construct_s"] = tr.per_op_s(("core.DiagonalStack", "core.TaggedMatrix", "core.GLElement"), cs)
    for layer in LAYERS:
        out[f"{layer}.calls"], out[f"{layer}.errors"] = tr.layer_counts(layer)
    out["trace.overhead_s"] = overhead_s
    return out


def _counts(wl) -> dict:
    return {"attempted": wl.attempted, "failed": wl.failed}


def unit_of(name: str) -> str:
    stem = re.sub(r"\.m\d+$", "", name)
    for suffix, unit in (("_gb_per_s", "GB/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"), ("_bytes", "bytes")):
        if stem.endswith(suffix):
            return unit
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("NUJD_THREADS", None)  # run_experiment's default: one worker
    try:
        import_s = import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, counts, problems, detail = traced(args, workdir)
        else:
            metrics, counts, problems, detail = untraced(args, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(c["attempted"] for c in counts.values())
    failed = sum(c["failed"] for c in counts.values())
    report = {
        "stamp": stamp(args, counts),
        "correct": not problems,
        "problems": problems,
        "metrics": metrics,
        "detail": detail,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
