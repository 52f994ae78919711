"""Run one command and print its wall time, exit code and own peak RSS.

Usage:

    python tools/peak_rss.py CMD [ARG ...]

for example ``PYTHONPATH=src python tools/peak_rss.py python -m nujd.cli
simulate config.json --out report.json``.  The command runs with this
process's environment, standard streams and working directory.  When it
ends, the script prints one JSON line on stdout:
``{"wall_s": ..., "exit_code": ..., "peak_rss_mb": ...}``.  The peak is the
command's ``ru_maxrss`` from ``os.wait4``, in MiB.  ``exit_code`` is
negative when a signal ended the command.  The script exits 0 once it has
printed the line, and 2 on a usage error or a command that cannot start.

A process's ``ru_maxrss`` includes the RSS its parent had when it was
spawned, so a command started from a large process (a benchmark that has
just generated its inputs, a test runner) reports that process's
high-water mark.  This launcher imports only the standard library modules
below, about 14 MB, so the figure it prints is the command's own above that.
"""

from __future__ import annotations

import json
import os
import sys
import time


def main(argv: list) -> int:
    if not argv:
        print("usage: python tools/peak_rss.py CMD [ARG ...]", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        pid = os.posix_spawnp(argv[0], argv, os.environ)
    except OSError as exc:
        print(f"error: {argv[0]}: {exc.strerror}", file=sys.stderr)
        return 2
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    print(json.dumps({
        "wall_s": round(wall, 4),
        "exit_code": os.waitstatus_to_exitcode(status),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
