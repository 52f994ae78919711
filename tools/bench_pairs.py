"""Record alternating parent/change benchmark runs in a ``BENCH_<n>.json`` file.

Usage:

    python tools/bench_pairs.py PARENT CHANGE OUT.json \\
        [--runs certify_solve=5 --runs cli_pipeline=1 ...]

PARENT and CHANGE are two checkouts of the repository, each with its own
``bench/`` and ``src/`` (for example two ``git clone``s).  For each workload
the script runs ``python3 bench/run.py --workload W --seed S --trace 0``
the given number of times on each side, in pairs with seeds 101, 102, ...,
so that both runs of a pair see the same inputs.  Each run lasts the
benchmark's own length, ``bench/run.py``'s default.  The
parent runs first in the first pair, the change in the second, and so on.
OUT holds every run's end-to-end metrics and, per workload, side and
metric, the median and the quartiles (``statistics.quantiles(n=4)``).
Each side carries the stamp of its first run: the run length in seconds,
nproc, the Python, numpy, scipy and BLAS versions, the git commit and a
SHA-256 of ``src/``.

It uses only the standard library.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cli_pipeline", "simulate_sut", "simulate_cum4", "certify_solve")
FIRST_SEED = 101
STAMP_KEYS = ("seconds", "nproc", "affinity_cpus", "python", "numpy", "scipy", "blas",
              "thread_env", "git_commit", "src_sha256")


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One untraced run's end-to-end metrics, counts and stamp, read from its last two lines."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "0"],
        capture_output=True, text=True, check=True,
    )
    report, summary = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    return {
        "seed": seed,
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: v["value"] for k, v in summary["metrics"].items()},
        "stamp": {k: report["stamp"].get(k) for k in STAMP_KEYS},
    }


def spread(values: list) -> dict:
    """Median and quartiles of ``values``; one value is its own quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr": q3 - q1}


def record(parent: Path, change: Path, runs: dict) -> dict:
    sides = {"parent": parent, "change": change}
    out = {"command": "python3 bench/run.py --workload W --seed S --trace 0",
           "stamp": {}, "workloads": {}}
    for workload, n in runs.items():
        pairs = []
        for i in range(n):
            seed = FIRST_SEED + i
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            pair = {side: run_once(sides[side], workload, seed) for side in order}
            for side, run in pair.items():
                out["stamp"].setdefault(side, run.pop("stamp"))
            print(workload, seed, {s: r["metrics"]["op_s"] for s, r in pair.items()},
                  file=sys.stderr)
            pairs.append({"first": order[0], **pair})
        summary = {}
        for side in sides:
            metrics = pairs[0][side]["metrics"]
            summary[side] = {k: spread([p[side]["metrics"][k] for p in pairs]) for k in metrics}
        op = [p["change"]["metrics"]["op_s"] < p["parent"]["metrics"]["op_s"] for p in pairs]
        out["workloads"][workload] = {
            "pairs": pairs,
            "summary": summary,
            "op_s_change_lower_in": f"{sum(op)} of {len(op)} pairs",
        }
    return out


def parse_runs(items) -> dict:
    runs = {}
    for item in items:
        name, _, count = item.partition("=")
        if name not in WORKLOADS or not count.isdigit() or int(count) < 1:
            raise SystemExit(f"--runs takes WORKLOAD=N with a workload of {WORKLOADS}, got {item!r}")
        runs[name] = int(count)
    return runs


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("out", type=Path)
    p.add_argument("--runs", action="append", default=[], metavar="WORKLOAD=N")
    args = p.parse_args(argv)
    runs = parse_runs(args.runs) or {w: 1 for w in WORKLOADS}
    doc = record(args.parent.resolve(), args.change.resolve(), runs)
    args.out.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
